package contour_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"testing"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/sim"
)

// pushQueryRounds returns the isoline reports of three consecutive rounds
// shaped like the push-query workload: 16k nodes (seed 1), suppression
// filter off, the silting seabed at t = 1, 1.5 and 2. The deployment is
// built once per test binary.
var pushQueryRounds = sync.OnceValues(func() (pushQueryInput, error) {
	env, err := sim.NewRunner(1).Build(sim.Scenario{Nodes: 16000, Seed: 1, Filter: &core.FilterConfig{Enabled: false}})
	if err != nil {
		return pushQueryInput{}, err
	}
	in := pushQueryInput{levels: env.Scenario.Levels, bounds: field.BoundsRect(env.Field)}
	dyn := field.DefaultSilting(env.Field)
	for _, t := range []float64{1, 1.5, 2} {
		res, err := core.Run(env.Tree, dyn.At(t), env.Query, *env.Scenario.Filter)
		if err != nil {
			return pushQueryInput{}, err
		}
		in.rounds = append(in.rounds, pushQueryRound{reports: res.Reports, sink: res.SinkValue})
	}
	return in, nil
})

type pushQueryInput struct {
	levels field.Levels
	bounds geom.Polygon
	rounds []pushQueryRound
}

type pushQueryRound struct {
	reports []core.Report
	sink    float64
}

// pushQueryMap reconstructs round i of pushQueryRounds.
func pushQueryMap(tb testing.TB, i int) *contour.Map {
	tb.Helper()
	in, err := pushQueryRounds()
	if err != nil {
		tb.Fatal(err)
	}
	r := in.rounds[i]
	return contour.Reconstruct(r.reports, in.levels, in.bounds, r.sink, contour.DefaultOptions())
}

// rasterSides are the raster resolutions the digest covers: odd and even,
// below and above the ~30 sites per side of a push-query level.
var rasterSides = []int{17, 64, 100, 128, 257}

// hashRaster feeds a raster's shape and every cell into h.
func hashRaster(h hash.Hash, ra *field.Raster) {
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(ra.Rows)
	put(ra.Cols)
	for _, row := range ra.Cells {
		for _, c := range row {
			h.Write([]byte{byte(c)})
		}
	}
}

// mapDigest hashes the single-worker rasters of m at every side and
// checks that a multi-worker sweep gives the same bytes.
func mapDigest(t *testing.T, m *contour.Map) string {
	t.Helper()
	h := sha256.New()
	for _, n := range rasterSides {
		ra := m.RasterWorkers(n, n, 1)
		if err := contour.EquivalentRaster(m.RasterWorkers(n, n, 3), ra); err != nil {
			t.Fatalf("%dx%d at 3 workers: %v", n, n, err)
		}
		hashRaster(h, ra)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRasterDigest pins the raster bytes of push-query-shaped maps and the
// benchReports maps, through the full sweep and the incremental refresh.
// The digests were recorded with the grid-index ring search answering
// every probe; how a probe's nearest site is found must never move them.
func TestRasterDigest(t *testing.T) {
	want := map[string]string{
		"push-query/round=0":      "6f570d80747daa89d1a9bedc9f8e270bff3bc7648e6522196df145427dbb5e07",
		"push-query/round=1":      "c076c662bf0fb792afd770b9623335fbc1c567d3e7a5a72607e521a2ed5a484e",
		"push-query/round=2":      "5f572c75029905f901d85a23b89cacc7ed838c4143a912ecc07d7e0f5adc18fb",
		"bench/k=32":              "9789e213f8e711cc4b57784792c4c6735ea902480a5740041e712742e02d562a",
		"bench/k=128":             "10f7766bf87bd122c2e4668f854944c52950d74d7e7f86b5d011557feb710893",
		"bench/k=512":             "db7a8618b43063d65598328231e8d2fcfe24d5557690cb6900104db384499c1f",
		"bench/k=2048":            "5b571a33b55b74c415dac64304675be6d489fd9039c8782447b9db12480894f2",
		"bench/k=512/incremental": "a2cb23a716beda08d054cdcff0d542aa0542ec5c6e02e92a4cd644f345ba3092",
	}
	got := make(map[string]string, len(want))
	for i := 0; i < 3; i++ {
		got[fmt.Sprintf("push-query/round=%d", i)] = mapDigest(t, pushQueryMap(t, i))
	}
	for _, k := range []int{32, 128, 512, 2048} {
		reports, levels := contour.BenchReports(k)
		m := contour.Reconstruct(reports, levels, geom.Rect(0, 0, 50, 50), 9, contour.DefaultOptions())
		got[fmt.Sprintf("bench/k=%d", k)] = mapDigest(t, m)
	}
	// A 3%-churn sequence of the k=512 reports pins the incremental
	// engine's rasters across rounds, where most cells and chords are
	// reused from the previous round; each must equal the full sweep of
	// the engine's map.
	reports, levels := contour.BenchReports(512)
	opts := contour.DefaultOptions()
	opts.Workers = 2
	inc := contour.NewIncremental(levels, geom.Rect(0, 0, 50, 50), opts)
	rng := rand.New(rand.NewSource(11))
	h := sha256.New()
	for round := 0; round < 3; round++ {
		for i := range reports {
			if rng.Float64() < 0.03 {
				reports[i].Pos.X += rng.NormFloat64() * 0.3
				reports[i].Pos.Y += rng.NormFloat64() * 0.3
			}
		}
		m := inc.Update(reports, 9)
		for _, n := range rasterSides {
			ra := inc.Raster(n, n)
			if err := contour.EquivalentRaster(ra, m.RasterWorkers(n, n, 1)); err != nil {
				t.Fatalf("incremental round %d %dx%d: %v", round, n, n, err)
			}
			hashRaster(h, ra)
		}
	}
	got["bench/k=512/incremental"] = hex.EncodeToString(h.Sum(nil))
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
}

// BenchmarkMapRaster times one raster sweep. The k cases are benchReports
// maps (uniformly random sites and gradients) at 100x100 on the default
// pool. The push-query cases are round 0 of pushQueryRounds — isoline
// sites along curves, 67/291/413/145 per level — at the workload's raster
// shape on one worker, where most probes lie far from every site.
func BenchmarkMapRaster(b *testing.B) {
	bounds := geom.Rect(0, 0, 50, 50)
	for _, k := range []int{32, 128, 512, 2048} {
		reports, levels := contour.BenchReports(k)
		m := contour.Reconstruct(reports, levels, bounds, 9, contour.DefaultOptions())
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ra := m.Raster(100, 100); ra.Rows != 100 {
					b.Fatal("bad raster")
				}
			}
		})
	}
	m := pushQueryMap(b, 0)
	for _, n := range []int{64, 100, 128} {
		b.Run(fmt.Sprintf("push-query/side=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ra := m.RasterWorkers(n, n, 1); ra.Rows != n {
					b.Fatal("bad raster")
				}
			}
		})
	}
}

// BenchmarkPushQueryUpdate times Incremental.Update on the push-query
// workload's shape: after a warm-up on round 0, each iteration pushes the
// next of pushQueryRounds' three rounds in turn, each a full build of
// isoline sites along curves.
func BenchmarkPushQueryUpdate(b *testing.B) {
	in, err := pushQueryRounds()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := contour.DefaultOptions()
			opts.Workers = workers
			inc := contour.NewIncremental(in.levels, in.bounds, opts)
			inc.Update(in.rounds[0].reports, in.rounds[0].sink)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := in.rounds[(i+1)%len(in.rounds)]
				if m := inc.Update(r.reports, r.sink); m == nil {
					b.Fatal("no map")
				}
			}
		})
	}
}
