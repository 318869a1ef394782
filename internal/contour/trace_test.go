package contour

import (
	"math/rand"
	"testing"

	"isomap/internal/geom"
	"isomap/internal/trace"
)

// sinkStages returns the sink stages the recorder holds, each mapped to
// the number of its events, failing on any other event kind.
func sinkStages(t *testing.T, rec *trace.Recorder) map[trace.Stage]int {
	t.Helper()
	seen := make(map[trace.Stage]int)
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindSinkStage {
			t.Fatalf("sink path recorded a %v event", ev.Kind)
		}
		if ev.DurNs < 0 {
			t.Fatalf("stage %v recorded a negative duration %d", trace.Stage(ev.Arg), ev.DurNs)
		}
		seen[trace.Stage(ev.Arg)]++
	}
	return seen
}

// requireStages fails unless every listed stage was recorded.
func requireStages(t *testing.T, what string, seen map[trace.Stage]int, want ...trace.Stage) {
	t.Helper()
	for _, s := range want {
		if seen[s] == 0 {
			t.Errorf("%s recorded no %s stage (saw %v)", what, s, seen)
		}
	}
}

// TestSinkStageTracing: a traced Reconstruct and a traced
// Incremental.Update record their voronoi, chords, regulate and raster
// stages, and tracing changes no output — maps and rasters are
// byte-identical to untraced runs, on the full first round and on an
// incremental churn round alike.
func TestSinkStageTracing(t *testing.T) {
	const res, sink = 64, 5
	rng := rand.New(rand.NewSource(61))
	levels := testLevels()
	bounds := geom.Rect(0, 0, 50, 50)
	reports := churnSeedReports(rng, 200, levels, bounds)
	all := []trace.Stage{trace.StageVoronoi, trace.StageChords, trace.StageRegulate, trace.StageRaster}

	rec := trace.NewRecorder(1024)
	traced := Reconstruct(reports, levels, bounds, sink, Options{Regulate: true, Trace: rec})
	tracedRaster := traced.Raster(res, res)
	requireStages(t, "Reconstruct", sinkStages(t, rec), all...)
	plain := Reconstruct(reports, levels, bounds, sink, DefaultOptions())
	if err := Equivalent(traced, plain, res, res); err != nil {
		t.Fatalf("traced Reconstruct diverges from untraced: %v", err)
	}
	if err := EquivalentRaster(tracedRaster, plain.Raster(res, res)); err != nil {
		t.Fatalf("traced Reconstruct raster diverges from untraced: %v", err)
	}

	rec.Reset()
	incTraced := NewIncremental(levels, bounds, Options{Regulate: true, Trace: rec})
	incPlain := NewIncremental(levels, bounds, DefaultOptions())
	for round := 0; round < 3; round++ {
		if round > 0 {
			reports = churnReports(rng, reports, levels, bounds)
		}
		mt := incTraced.Update(reports, sink)
		rt := incTraced.Raster(res, res)
		mp := incPlain.Update(reports, sink)
		rp := incPlain.Raster(res, res)
		seen := sinkStages(t, rec)
		rec.Reset()
		// Only the first round's raster is a full sweep; later rounds
		// refresh the previous raster's dirty rows, which is not a
		// raster stage.
		want := all[:3]
		if round == 0 {
			want = all
		}
		requireStages(t, "Incremental.Update", seen, want...)
		if err := Equivalent(mt, mp, res, res); err != nil {
			t.Fatalf("round %d: traced Incremental map diverges from untraced: %v", round, err)
		}
		if err := EquivalentRaster(rt, rp); err != nil {
			t.Fatalf("round %d: traced Incremental raster diverges from untraced: %v", round, err)
		}
	}
	if st := incTraced.Stats(); st.CellsReused == 0 {
		t.Fatalf("churn rounds took no incremental path: %+v", st)
	}
}
