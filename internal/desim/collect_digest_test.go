package desim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"isomap/internal/core"
	"isomap/internal/network"
)

// collectDigest hashes everything a collection run exposes: the delivered
// report sequence in arrival order, the completion time's bits, the radio
// statistics with the event count, and every node's physical tx/rx bytes.
// Two runs digest equal only when they executed the same frames in the
// same order.
func collectDigest(res *RoundResult) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	i := func(v int64) { u(uint64(v)) }
	i(int64(len(res.Delivered)))
	for _, r := range res.Delivered {
		f(r.Level)
		i(int64(r.LevelIndex))
		f(r.Pos.X)
		f(r.Pos.Y)
		f(r.Grad.X)
		f(r.Grad.Y)
		i(int64(r.Source))
		if r.Retire {
			u(1)
		} else {
			u(0)
		}
	}
	f(res.CollectSeconds)
	rd := res.Radio
	for _, v := range []int{rd.DataSent, rd.Retries, rd.Collisions, rd.Drops, rd.ChannelLosses, rd.Delivered} {
		i(int64(v))
	}
	i(res.Events)
	c := res.Counters
	i(int64(c.Len()))
	for id := 0; id < c.Len(); id++ {
		i(c.TxBytes(network.NodeID(id)))
		i(c.RxBytes(network.NodeID(id)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCollectDigest pins the packet-level collection bit for bit on two
// deployments, filtering on and off: the delivered sequence, completion
// time, link-layer statistics, event count and per-node physical bytes.
func TestCollectDigest(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		seed     int64
		filtered bool
		want     string
	}{
		{"n=900/seed=3/filter=on", 900, 3, true, "18c6a946b0766703cbb2eef755270b91856a0c00e01d70faf64a29a408cc7fb0"},
		{"n=900/seed=3/filter=off", 900, 3, false, "18c6a946b0766703cbb2eef755270b91856a0c00e01d70faf64a29a408cc7fb0"},
		{"n=2500/seed=1/filter=on", 2500, 1, true, "94f8aeb15471f7b300a35486a918c95b4d4a712cc95ff1a6c6626240a3979d21"},
		{"n=2500/seed=1/filter=off", 2500, 1, false, "916479b368ae0108b123f807e03293a7f57f221f1d427911e99a8f686b353001"},
	}
	for _, tc := range cases {
		tree, reports := isoMapRound(t, tc.n, tc.seed)
		fc := core.FilterConfig{Enabled: false}
		if tc.filtered {
			fc = core.DefaultFilterConfig()
		}
		res, err := CollectReports(nil, tree, reports, fc, DefaultRadioConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := collectDigest(res); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
