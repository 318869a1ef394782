package faults

import (
	"math"
	"testing"

	"isomap/internal/field"
	"isomap/internal/network"
)

// mapStreams is the map-keyed channel the dense Links table replaced,
// kept as its oracle: a directed link's stream is created on its first
// draw, keyed by (from, to), and drawn by the Gilbert–Elliott or
// Bernoulli step written out here independently of Links.draw.
type mapStreams struct {
	cfg   Config
	links map[uint64]*linkState
}

func newMapStreams(p *Plan) *mapStreams {
	var cfg Config
	if p != nil {
		cfg = p.cfg
	}
	return &mapStreams{cfg: cfg, links: make(map[uint64]*linkState)}
}

// Lose draws one reception on from->to, as Plan.Lose did before the
// table.
func (m *mapStreams) Lose(from, to network.NodeID) bool {
	if m.cfg.Channel == ChannelPerfect || m.cfg.LossRate <= 0 {
		return false
	}
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	st, ok := m.links[key]
	if !ok {
		st = &linkState{ctr: uint64(mix(uint64(m.cfg.Seed), key))}
		if m.cfg.Channel == ChannelGilbertElliott {
			st.bad = st.next() < m.cfg.LossRate
		}
		m.links[key] = st
	}
	switch m.cfg.Channel {
	case ChannelBernoulli:
		return st.next() < m.cfg.LossRate
	case ChannelGilbertElliott:
		lost := st.bad
		if st.bad {
			if st.next() < (1-m.cfg.LossRate)*(1-m.cfg.Burstiness) {
				st.bad = false
			}
		} else if st.next() < m.cfg.LossRate*(1-m.cfg.Burstiness) {
			st.bad = true
		}
		return lost
	}
	return false
}

// linkNetwork is a small uniform deployment with a few neighbours per
// node, for drawing over real adjacency.
func linkNetwork(tb testing.TB, n int, seed int64) *network.Network {
	tb.Helper()
	f := field.NewSeabed(field.DefaultSeabedConfig())
	nw, err := network.DeployUniform(n, f, 2*50/math.Sqrt(float64(n)), seed)
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// FuzzLinkStreams checks the dense table against the map oracle: any
// sequence of (from, to) draws over a deployment's directed links, under
// Bernoulli and under Gilbert–Elliott at any rate and burstiness, must
// lose exactly the same receptions draw for draw.
func FuzzLinkStreams(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(50), uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(7), uint8(1), uint16(300), uint16(600), []byte{9, 9, 9, 9, 200, 13, 13, 13, 13, 200})
	f.Add(int64(-3), uint8(1), uint16(999), uint16(999), []byte{1, 2, 1, 2, 1, 2, 255, 0})
	nw := linkNetwork(f, 64, 5)
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, loss, burst uint16, ops []byte) {
		cfg := Config{Seed: seed, Channel: ChannelBernoulli, LossRate: float64(loss%1000) / 1000}
		if kind%2 == 1 {
			cfg.Channel = ChannelGilbertElliott
			cfg.Burstiness = float64(burst%1000) / 1000
		}
		p, err := New(cfg, nw.Len())
		if err != nil {
			t.Fatal(err)
		}
		links := p.Links(nw)
		if links == nil {
			if p.HasChannel() {
				t.Fatal("lossy plan built no link table")
			}
			return
		}
		oracle := newMapStreams(p)
		for i := 0; i+1 < len(ops); i += 2 {
			from := network.NodeID(int(ops[i]) % nw.Len())
			nbs := nw.Neighbors(from)
			if len(nbs) == 0 {
				continue
			}
			j := int(ops[i+1]) % len(nbs)
			if got, want := links.Lose(from, j), oracle.Lose(from, nbs[j]); got != want {
				t.Fatalf("draw %d on %d->%d: table lost=%v, oracle lost=%v", i/2, from, nbs[j], got, want)
			}
		}
	})
}

// TestLinksContinueAcrossCalls pins the table's lifetime: a second Links
// call over the same network returns the same streams, so a plan drawn
// by two rounds continues its links as the map did.
func TestLinksContinueAcrossCalls(t *testing.T) {
	nw := linkNetwork(t, 64, 5)
	p, err := New(Config{Seed: 3, Channel: ChannelGilbertElliott, LossRate: 0.3, Burstiness: 0.5}, nw.Len())
	if err != nil {
		t.Fatal(err)
	}
	oracle := newMapStreams(p)
	for round := 0; round < 3; round++ {
		links := p.Links(nw)
		for from := network.NodeID(0); int(from) < nw.Len(); from++ {
			for j, to := range nw.Neighbors(from) {
				if got, want := links.Lose(from, j), oracle.Lose(from, to); got != want {
					t.Fatalf("round %d, link %d->%d: table lost=%v, oracle lost=%v", round, from, to, got, want)
				}
			}
		}
	}
}
