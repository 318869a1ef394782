package contour

import (
	"math/rand"
	"reflect"
	"testing"

	"isomap/internal/core"
	"isomap/internal/geom"
	"isomap/internal/trace"
)

// TestReconstructWorkersByteIdentical is the oracle of the level pool the
// server builds every round on: ReconstructWorkers at widths 1, 2 and 8
// (and 0, GOMAXPROCS) returns a map DeepEqual to Reconstruct's, with an
// identical raster, across churned report sets, the empty set and
// out-of-range level indices.
func TestReconstructWorkersByteIdentical(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 30, 30)
	const rows, cols = 52, 47
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		reports := churnSeedReports(rng, 300+rng.Intn(100), levels, bounds)
		for round := 0; round < 4; round++ {
			sink := 1 + rng.Float64()*8
			in := reports
			switch round {
			case 2:
				in = nil
			case 3:
				in = append([]core.Report{{LevelIndex: -1}, {LevelIndex: levels.Count()}}, reports...)
			}
			want := Reconstruct(in, levels, bounds, sink, DefaultOptions())
			wantRa := want.RasterWorkers(rows, cols, 1)
			for _, w := range []int{1, 2, 8, 0} {
				got := ReconstructWorkers(in, levels, bounds, sink, DefaultOptions(), w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d workers=%d: map differs from Reconstruct's", seed, round, w)
				}
				if err := EquivalentRaster(wantRa, got.RasterWorkers(rows, cols, w)); err != nil {
					t.Fatalf("seed %d round %d workers=%d: raster: %v", seed, round, w, err)
				}
			}
			reports = churnReports(rng, reports, levels, bounds)
		}
	}
}

// TestReconstructWorkersTracedIsSequential: a traced ReconstructWorkers
// runs at width 1 whatever width it is asked for, so its stage events
// come level by level in the order a traced Reconstruct records them
// (the recorder is single-writer; under the race detector a pooled
// traced build would also be reported as a race).
func TestReconstructWorkersTracedIsSequential(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 50, 50)
	reports := churnSeedReports(rand.New(rand.NewSource(62)), 400, levels, bounds)
	stages := func(workers int) [][2]int64 {
		rec := trace.NewRecorder(1024)
		opts := Options{Regulate: true, Trace: rec}
		m := ReconstructWorkers(reports, levels, bounds, 5, opts, workers)
		if err := Equivalent(m, Reconstruct(reports, levels, bounds, 5, DefaultOptions()), 32, 32); err != nil {
			t.Fatalf("traced workers=%d: %v", workers, err)
		}
		var out [][2]int64
		for _, ev := range rec.Events() {
			if ev.Seq >= 0 {
				out = append(out, [2]int64{ev.Seq, int64(ev.Arg)})
			}
		}
		return out
	}
	want := stages(1)
	if len(want) != 3*levels.Count() {
		t.Fatalf("traced build recorded %d level stages, want %d", len(want), 3*levels.Count())
	}
	for i := 1; i < len(want); i++ {
		if want[i][0] < want[i-1][0] {
			t.Fatalf("width-1 stage events out of level order: %v", want)
		}
	}
	for _, w := range []int{2, 8, 0} {
		if got := stages(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("traced workers=%d recorded %v, want the sequential order %v", w, got, want)
		}
	}
}

// TestIncrementalWorkersByteIdentical is the parallel-ingest oracle: the
// same churn stream driven through engines at worker widths {1, 2, 8}
// must produce byte-identical maps, rasters, arranged orders and work
// stats at every round. Width 1 is the sequential reference; the others
// exercise the level pool and the parallel raster sweep.
func TestIncrementalWorkersByteIdentical(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 30, 30)
	const rows, cols = 52, 47
	widths := []int{1, 2, 8}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		engines := make([]*Incremental, len(widths))
		for i, w := range widths {
			opts := DefaultOptions()
			opts.Workers = w
			engines[i] = NewIncremental(levels, bounds, opts)
		}
		reports := churnSeedReports(rng, 300+rng.Intn(100), levels, bounds)
		for round := 0; round < 6; round++ {
			sink := 1 + rng.Float64()*8
			ref := engines[0]
			ref.Update(reports, sink)
			refRa := ref.Raster(rows, cols)
			for i := 1; i < len(engines); i++ {
				m := engines[i].Update(reports, sink)
				if err := Equivalent(ref.Map(), m, 0, 0); err != nil {
					t.Fatalf("seed %d round %d workers=%d: map diverges: %v", seed, round, widths[i], err)
				}
				if !reflect.DeepEqual(ref.Arranged(), engines[i].Arranged()) {
					t.Fatalf("seed %d round %d workers=%d: arranged order diverges", seed, round, widths[i])
				}
				if err := EquivalentRaster(refRa, engines[i].Raster(rows, cols)); err != nil {
					t.Fatalf("seed %d round %d workers=%d: raster diverges: %v", seed, round, widths[i], err)
				}
				if ref.Stats() != engines[i].Stats() {
					t.Fatalf("seed %d round %d workers=%d: stats diverge:\n  seq %+v\n  par %+v",
						seed, round, widths[i], ref.Stats(), engines[i].Stats())
				}
			}
			checkOracle(t, engines[len(engines)-1], sink, rows, cols)
			reports = churnReports(rng, reports, levels, bounds)
		}
	}
}

// TestIncrementalWorkersDegenerate drives the parallel engine through the
// degenerate shapes (empty rounds, shrink-to-empty, resolution switches)
// at width 8 against the sequential oracle.
func TestIncrementalWorkersDegenerate(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 20, 20)
	rng := rand.New(rand.NewSource(23))
	opts := DefaultOptions()
	opts.Workers = 8
	inc := NewIncremental(levels, bounds, opts)
	reports := churnSeedReports(rng, 50, levels, bounds)
	for _, n := range []int{50, 9, 0, 0, 34, 1} {
		if n > len(reports) {
			reports = churnSeedReports(rng, n, levels, bounds)
		}
		sink := rng.Float64() * 9
		inc.Update(reports[:n], sink)
		checkOracle(t, inc, sink, 36, 36)
		for _, res := range [][2]int{{24, 24}, {0, 10}, {-3, 5}} {
			if err := EquivalentRaster(inc.Raster(res[0], res[1]), inc.Map().RasterWorkers(res[0], res[1], 1)); err != nil {
				t.Fatalf("n=%d res %v: %v", n, res, err)
			}
		}
	}
}
