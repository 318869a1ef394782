package contour

import (
	"math"
	"math/rand"
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/network"
)

func testLevels() field.Levels { return field.Levels{Low: 2, High: 8, Step: 2} }

// randomReports synthesizes k reports spread over the isolevels, with unit
// gradients — the shape core.Run produces.
func churnSeedReports(rng *rand.Rand, k int, levels field.Levels, bounds geom.Polygon) []core.Report {
	vals := levels.Values()
	x0, y0, x1, y1 := bounds.BoundingBox()
	out := make([]core.Report, 0, k)
	for i := 0; i < k; i++ {
		li := rng.Intn(len(vals))
		ang := rng.Float64() * 2 * math.Pi
		out = append(out, core.Report{
			Level:      vals[li],
			LevelIndex: li,
			Pos: geom.Point{
				X: x0 + rng.Float64()*(x1-x0),
				Y: y0 + rng.Float64()*(y1-y0),
			},
			Grad:   geom.Vec{X: math.Cos(ang), Y: math.Sin(ang)},
			Source: network.NodeID(1 + i),
		})
	}
	return out
}

// churnReports perturbs one round of reports the way a slowly moving field
// does: most reports unchanged, a few moved or re-aimed, a few dropped, a
// few fresh ones appended.
func churnReports(rng *rand.Rand, reports []core.Report, levels field.Levels, bounds geom.Polygon) []core.Report {
	out := append([]core.Report(nil), reports...)
	for i := range out {
		if rng.Float64() < 0.05 {
			out[i].Pos.X += rng.NormFloat64() * 0.4
			out[i].Pos.Y += rng.NormFloat64() * 0.4
		}
		if rng.Float64() < 0.03 {
			ang := rng.Float64() * 2 * math.Pi
			out[i].Grad = geom.Vec{X: math.Cos(ang), Y: math.Sin(ang)}
		}
	}
	for len(out) > 0 && rng.Float64() < 0.3 {
		di := rng.Intn(len(out))
		out = append(out[:di], out[di+1:]...)
	}
	add := churnSeedReports(rng, rng.Intn(3), levels, bounds)
	for i := range add {
		add[i].Source = network.NodeID(10000 + rng.Intn(1<<20))
	}
	out = append(out, add...)
	// Reorder arrivals: routing delivers in no particular order, and the
	// engine's slot arrangement must absorb that.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkOracle verifies the engine's map and raster against a from-scratch
// Reconstruct over the engine's own arranged report order.
func checkOracle(t *testing.T, inc *Incremental, sink float64, rows, cols int) {
	t.Helper()
	full := Reconstruct(inc.Arranged(), inc.levels, inc.bounds, sink, inc.opts)
	if err := Equivalent(inc.Map(), full, rows, cols); err != nil {
		t.Fatalf("round %d: incremental map diverges from oracle: %v", inc.Version(), err)
	}
	if err := EquivalentRaster(inc.Raster(rows, cols), full.RasterWorkers(rows, cols, 1)); err != nil {
		t.Fatalf("round %d: incremental raster diverges from oracle: %v", inc.Version(), err)
	}
}

// TestIncrementalOracleChurn is the tentpole property test: across seeded
// multi-round churn, the incremental engine stays byte-identical to the
// full rebuild — map state, classification raster, boundary polylines and
// point classification alike.
func TestIncrementalOracleChurn(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 30, 30)
	const rows, cols = 48, 48
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc := NewIncremental(levels, bounds, DefaultOptions())
		reports := churnSeedReports(rng, 40+rng.Intn(60), levels, bounds)
		for round := 0; round < 7; round++ {
			sink := 1 + rng.Float64()*8
			m := inc.Update(reports, sink)
			checkOracle(t, inc, sink, rows, cols)
			full := Reconstruct(inc.Arranged(), levels, bounds, sink, DefaultOptions())
			for probe := 0; probe < 25; probe++ {
				p := geom.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}
				if got, want := m.ClassifyPoint(p), full.ClassifyPoint(p); got != want {
					t.Fatalf("seed %d round %d: ClassifyPoint(%v) = %d, oracle %d", seed, round, p, got, want)
				}
			}
			for li := range levels.Values() {
				a, b := m.BoundarySegments(li), full.BoundarySegments(li)
				if len(a) != len(b) {
					t.Fatalf("seed %d round %d: level %d boundary count %d vs %d", seed, round, li, len(a), len(b))
				}
				for si := range a {
					if a[si] != b[si] {
						t.Fatalf("seed %d round %d: level %d segment %d diverges", seed, round, li, si)
					}
				}
			}
			reports = churnReports(rng, reports, levels, bounds)
		}
		st := inc.Stats()
		if st.CellsReused == 0 {
			t.Fatalf("seed %d: churn rounds reused no cells: %+v", seed, st)
		}
	}
}

// TestIncrementalEmptyDiff: re-sending the identical round must reuse every
// level wholesale, recompute nothing, and serve the cached raster.
func TestIncrementalEmptyDiff(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 20, 20)
	rng := rand.New(rand.NewSource(7))
	inc := NewIncremental(levels, bounds, DefaultOptions())
	reports := churnSeedReports(rng, 50, levels, bounds)
	inc.Update(reports, 5)
	ra1 := inc.Raster(32, 32)
	before := inc.Stats()

	shuffled := append([]core.Report(nil), reports...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	inc.Update(shuffled, 5)
	checkOracle(t, inc, 5, 32, 32)
	after := inc.Stats()
	if got := after.LevelsReused - before.LevelsReused; got != levels.Count() {
		t.Fatalf("identical round reused %d levels, want all %d", got, levels.Count())
	}
	if after.CellsRecomputed != before.CellsRecomputed {
		t.Fatalf("identical round recomputed %d cells", after.CellsRecomputed-before.CellsRecomputed)
	}
	ra2 := inc.Raster(32, 32)
	if err := EquivalentRaster(ra1, ra2); err != nil {
		t.Fatalf("identical round raster changed: %v", err)
	}
	if after.RasterFullRebuilds != before.RasterFullRebuilds || after.RasterCellsReclassified != before.RasterCellsReclassified {
		t.Fatalf("identical round redid raster work: %+v -> %+v", before, after)
	}
}

// TestIncrementalAllChanged: when every report moves, the engine must fall
// back to (the equivalent of) a full rebuild and still match the oracle.
func TestIncrementalAllChanged(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 20, 20)
	rng := rand.New(rand.NewSource(11))
	inc := NewIncremental(levels, bounds, DefaultOptions())
	inc.Update(churnSeedReports(rng, 60, levels, bounds), 5)
	inc.Raster(40, 40)
	inc.Update(churnSeedReports(rng, 60, levels, bounds), 5)
	checkOracle(t, inc, 5, 40, 40)
}

// TestIncrementalShrinkAndEmpty: report counts shrinking to zero and
// growing back must match the oracle at every step (empty levels exercise
// the fallbackInner path).
func TestIncrementalShrinkAndEmpty(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 20, 20)
	rng := rand.New(rand.NewSource(13))
	inc := NewIncremental(levels, bounds, DefaultOptions())
	reports := churnSeedReports(rng, 50, levels, bounds)
	for _, n := range []int{50, 17, 4, 0, 0, 23} {
		if n > len(reports) {
			reports = churnSeedReports(rng, n, levels, bounds)
		}
		sink := rng.Float64() * 9
		inc.Update(reports[:n], sink)
		checkOracle(t, inc, sink, 36, 36)
	}
}

// TestIncrementalRasterResolutions: switching resolutions mid-stream must
// not cross-contaminate caches.
func TestIncrementalRasterResolutions(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 20, 20)
	rng := rand.New(rand.NewSource(17))
	inc := NewIncremental(levels, bounds, DefaultOptions())
	reports := churnSeedReports(rng, 45, levels, bounds)
	for round := 0; round < 4; round++ {
		inc.Update(reports, 5)
		for _, res := range [][2]int{{24, 24}, {31, 17}, {0, 10}, {-3, 5}} {
			ra := inc.Raster(res[0], res[1])
			want := inc.Map().RasterWorkers(res[0], res[1], 1)
			if err := EquivalentRaster(ra, want); err != nil {
				t.Fatalf("round %d res %v: %v", round, res, err)
			}
		}
		reports = churnReports(rng, reports, levels, bounds)
	}
}

// TestArrangeLevelSlots pins the slot-assignment rules: unchanged reports
// keep their slots, changed ones fill freed slots in arrival order, and
// the result is always a permutation of the input.
func TestArrangeLevelSlots(t *testing.T) {
	r := func(x float64) core.Report {
		return core.Report{Level: 2, Pos: geom.Point{X: x, Y: 1}}
	}
	prev := []core.Report{r(1), r(2), r(3), r(4)}

	kept := arrangeLevel(prev, []core.Report{r(4), r(2), r(1), r(3)})
	for i, want := range []float64{1, 2, 3, 4} {
		if kept[i].Pos.X != want {
			t.Fatalf("slot %d = %v, want x=%v", i, kept[i].Pos, want)
		}
	}

	// r(2) vanished, r(9) arrived: r(9) takes the freed slot 1.
	swapped := arrangeLevel(prev, []core.Report{r(3), r(9), r(1), r(4)})
	for i, want := range []float64{1, 9, 3, 4} {
		if swapped[i].Pos.X != want {
			t.Fatalf("swap slot %d = %v, want x=%v", i, swapped[i].Pos, want)
		}
	}

	// Shrink: surviving reports keep in-range slots; r(4)'s slot 3 is gone.
	shrunk := arrangeLevel(prev, []core.Report{r(4), r(1)})
	if shrunk[0].Pos.X != 1 || shrunk[1].Pos.X != 4 {
		t.Fatalf("shrink = %v", shrunk)
	}

	// Duplicates claim distinct previous slots FIFO.
	dupPrev := []core.Report{r(5), r(5), r(6)}
	dup := arrangeLevel(dupPrev, []core.Report{r(6), r(5), r(5)})
	if dup[0].Pos.X != 5 || dup[1].Pos.X != 5 || dup[2].Pos.X != 6 {
		t.Fatalf("dup = %v", dup)
	}
}

// TestIncrementalOutOfRangeLevels: reports with out-of-range level indices
// are dropped, matching Reconstruct.
func TestIncrementalOutOfRangeLevels(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 20, 20)
	rng := rand.New(rand.NewSource(19))
	inc := NewIncremental(levels, bounds, DefaultOptions())
	reports := churnSeedReports(rng, 30, levels, bounds)
	reports = append(reports,
		core.Report{LevelIndex: -1, Pos: geom.Point{X: 5, Y: 5}},
		core.Report{LevelIndex: levels.Count(), Pos: geom.Point{X: 6, Y: 6}},
	)
	inc.Update(reports, 5)
	checkOracle(t, inc, 5, 30, 30)
	if got, want := len(inc.Arranged()), 30; got != want {
		t.Fatalf("arranged kept %d reports, want %d in-range", got, want)
	}
}

// TestIncrementalArrangedReproducesEngine is the recovery lemma the
// serving layer leans on: at any point of a churn run, a fresh engine
// whose first Update is the live engine's Arranged() order has a map and
// raster byte-identical to the continuous engine's — so a quarantined
// deployment (or a restart from a checkpoint) resumes exactly where the
// uncorrupted engine stood.
func TestIncrementalArrangedReproducesEngine(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 30, 30)
	const rows, cols = 40, 40
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc := NewIncremental(levels, bounds, DefaultOptions())
		reports := churnSeedReports(rng, 35+rng.Intn(40), levels, bounds)
		for round := 0; round < 5; round++ {
			sink := 1 + rng.Float64()*8
			inc.Update(reports, sink)

			re := NewIncremental(levels, bounds, DefaultOptions())
			m := re.Update(inc.Arranged(), sink)
			if err := Equivalent(inc.Map(), m, rows, cols); err != nil {
				t.Fatalf("seed %d round %d: rebuilt map diverges: %v", seed, round, err)
			}
			if err := EquivalentRaster(inc.Raster(rows, cols), re.Raster(rows, cols)); err != nil {
				t.Fatalf("seed %d round %d: rebuilt raster diverges: %v", seed, round, err)
			}

			// The rebuilt engine must also *continue* identically: one
			// more churn round through both engines stays byte-identical.
			next := churnReports(rng, reports, levels, bounds)
			nextSink := 1 + rng.Float64()*8
			inc.Update(next, nextSink)
			re.Update(next, nextSink)
			if err := Equivalent(inc.Map(), re.Map(), rows, cols); err != nil {
				t.Fatalf("seed %d round %d: post-rebuild churn diverges: %v", seed, round, err)
			}
			if err := EquivalentRaster(inc.Raster(rows, cols), re.Raster(rows, cols)); err != nil {
				t.Fatalf("seed %d round %d: post-rebuild raster diverges: %v", seed, round, err)
			}
			reports = churnReports(rng, next, levels, bounds)
		}
	}
}
