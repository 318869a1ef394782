package contour

import (
	"math"
	"math/rand"
	"reflect"
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
	// Reorder arrivals: routing delivers in no particular order.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkOracle verifies the engine's map and raster against a from-scratch
// Reconstruct over the engine's Arranged reports.
func checkOracle(t *testing.T, inc *Incremental, sink float64, rows, cols int) {
	t.Helper()
	full := Reconstruct(inc.Arranged(), inc.levels, inc.bounds, sink, inc.opts)
	if err := Equivalent(inc.Map(), full, rows, cols); err != nil {
		t.Fatalf("round %d: incremental map diverges from oracle: %v", inc.Stats().Updates, err)
	}
	if err := EquivalentRaster(inc.Raster(rows, cols), full.RasterWorkers(rows, cols, 1)); err != nil {
		t.Fatalf("round %d: incremental raster diverges from oracle: %v", inc.Stats().Updates, err)
	}
}

// TestIncrementalOracleChurn: across seeded multi-round churn, the engine
// stays byte-identical to Reconstruct — map state, classification raster,
// boundary polylines and point classification alike.
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
	}
}

// TestIncrementalEmptyDiff: re-sending the identical round, reordered,
// must match the oracle and raster identically.
func TestIncrementalEmptyDiff(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 20, 20)
	rng := rand.New(rand.NewSource(7))
	inc := NewIncremental(levels, bounds, DefaultOptions())
	reports := churnSeedReports(rng, 50, levels, bounds)
	inc.Update(reports, 5)
	ra1 := inc.Raster(32, 32)

	shuffled := append([]core.Report(nil), reports...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	inc.Update(shuffled, 5)
	checkOracle(t, inc, 5, 32, 32)
	ra2 := inc.Raster(32, 32)
	if err := EquivalentRaster(ra1, ra2); err != nil {
		t.Fatalf("identical round raster changed: %v", err)
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

// TestIncrementalArrangedReproducesEngine: at any point of a churn run, a
// fresh engine whose first Update is the live engine's Arranged() order
// has a map and raster byte-identical to the continuous engine's, and
// continues identically.
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

// TestUpdateIgnoresHistory: Update is a pure function of its input. An
// engine that has seen earlier churn rounds, whose reports the final
// round shares and permutes, returns the map a fresh engine returns for
// that round alone: DeepEqual, with equal rasters.
func TestUpdateIgnoresHistory(t *testing.T) {
	levels := testLevels()
	bounds := geom.Rect(0, 0, 30, 30)
	const rows, cols = 40, 40
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seen := NewIncremental(levels, bounds, DefaultOptions())
		reports := churnSeedReports(rng, 35+rng.Intn(40), levels, bounds)
		for round := 0; round < 4; round++ {
			seen.Update(reports, 1+rng.Float64()*8)
			reports = churnReports(rng, reports, levels, bounds)
		}
		sink := 1 + rng.Float64()*8
		got := seen.Update(reports, sink)

		fresh := NewIncremental(levels, bounds, DefaultOptions())
		want := fresh.Update(reports, sink)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: map after earlier rounds differs from a fresh engine's", seed)
		}
		if err := EquivalentRaster(seen.Raster(rows, cols), fresh.Raster(rows, cols)); err != nil {
			t.Fatalf("seed %d: raster after earlier rounds: %v", seed, err)
		}
	}
}
