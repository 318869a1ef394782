package contour

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
)

// rastersEqual reports byte-identity of two rasters.
func rastersEqual(a, b *field.Raster) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for r := range a.Cells {
		for c := range a.Cells[r] {
			if a.Cells[r][c] != b.Cells[r][c] {
				return false
			}
		}
	}
	return true
}

// reconMaps builds a few maps with varied report densities, including
// degenerate duplicate/empty-level inputs, for the raster equivalence
// tests.
func reconMaps(t *testing.T) []*Map {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	levels := levels682()
	bounds := geom.Rect(0, 0, 50, 50)
	var maps []*Map
	for _, n := range []int{0, 1, 5, 40, 200} {
		reports := randomReports(rng, n, levels)
		maps = append(maps, Reconstruct(reports, levels, bounds, rng.Float64()*15, DefaultOptions()))
	}
	dup := []core.Report{
		{LevelIndex: 0, Pos: geom.Point{X: 10, Y: 10}, Grad: geom.Vec{X: 1}},
		{LevelIndex: 0, Pos: geom.Point{X: 10, Y: 10}, Grad: geom.Vec{X: 1}},
		{LevelIndex: 1, Pos: geom.Point{X: 30, Y: 30}, Grad: geom.Vec{Y: -1}},
	}
	maps = append(maps, Reconstruct(dup, levels, bounds, 9, DefaultOptions()))
	return maps
}

func TestRasterParallelByteIdenticalToSequential(t *testing.T) {
	for mi, m := range reconMaps(t) {
		seq := m.RasterWorkers(48, 48, 1)
		for _, workers := range []int{2, 3, 8, 64, 0} {
			par := m.RasterWorkers(48, 48, workers)
			if !rastersEqual(seq, par) {
				t.Fatalf("map %d: raster at %d workers differs from sequential", mi, workers)
			}
		}
		if !rastersEqual(seq, m.Raster(48, 48)) {
			t.Fatalf("map %d: default Raster differs from sequential", mi)
		}
	}
}

func TestRasterMatchesNaiveReference(t *testing.T) {
	for mi, m := range reconMaps(t) {
		if !rastersEqual(m.Raster(48, 48), m.RasterNaive(48, 48)) {
			t.Fatalf("map %d: indexed raster differs from naive reference", mi)
		}
	}
}

func TestClassifyPointMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for mi, m := range reconMaps(t) {
		for probe := 0; probe < 500; probe++ {
			p := geom.Point{X: rng.Float64()*60 - 5, Y: rng.Float64()*60 - 5}
			if got, want := m.ClassifyPoint(p), m.classifyPointNaive(p); got != want {
				t.Fatalf("map %d: ClassifyPoint(%v) = %d, naive = %d", mi, p, got, want)
			}
		}
	}
}

func TestWarmStartCorrectAtRowBoundaries(t *testing.T) {
	// Probe sequences that jump between row ends — the worst case for a
	// stale cursor — must classify exactly like cold queries.
	rng := rand.New(rand.NewSource(57))
	levels := levels682()
	bounds := geom.Rect(0, 0, 50, 50)
	reports := randomReports(rng, 80, levels)
	m := Reconstruct(reports, levels, bounds, 9, DefaultOptions())
	for _, lr := range m.levels {
		if len(lr.sites) == 0 {
			continue
		}
		hint := -1
		for step := 0; step < 200; step++ {
			// Alternate far left / far right probes (x near 0 then near 50)
			// so each query's hint points across the whole field.
			x := rng.Float64() * 2
			if step%2 == 1 {
				x = 48 + rng.Float64()*2
			}
			p := geom.Point{X: x, Y: rng.Float64() * 50}
			warm := lr.levelInnerNear(p, &hint, lr.patches)
			cold := lr.levelInner(p)
			if warm != cold {
				t.Fatalf("warm-start membership %v != cold %v at %v", warm, cold, p)
			}
		}
	}
}

func TestPatchBBoxRejectMatchesFullTest(t *testing.T) {
	// Every patch's bbox-gated test must agree with the raw triangle test,
	// including on boundary-band points.
	rng := rand.New(rand.NewSource(58))
	levels := levels682()
	bounds := geom.Rect(0, 0, 50, 50)
	reports := randomReports(rng, 150, levels)
	m := Reconstruct(reports, levels, bounds, 9, DefaultOptions())
	patches := 0
	for _, lr := range m.levels {
		for i := range lr.patches {
			pa := &lr.patches[i]
			patches++
			for probe := 0; probe < 50; probe++ {
				p := geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
				if pa.contains(p) != pa.tri.Contains(p) {
					t.Fatalf("bbox-gated patch test differs at %v", p)
				}
			}
			// Vertices and edge midpoints sit on the Eps boundary band.
			for _, v := range pa.tri {
				if !pa.contains(v) {
					t.Fatalf("patch rejects its own vertex %v", v)
				}
			}
			for _, e := range pa.tri.Edges() {
				if !pa.contains(e.Mid()) {
					t.Fatalf("patch rejects edge midpoint %v", e.Mid())
				}
			}
		}
	}
	if patches == 0 {
		t.Fatal("no regulation patches generated; test is vacuous")
	}
}

// benchReports fabricates k reports on the lowest isolevel plus k/4 on the
// next, matching the skew of real rounds (seeded, deterministic).
func benchReports(k int) ([]core.Report, field.Levels) {
	levels := field.Levels{Low: 6, High: 12, Step: 2}
	rng := rand.New(rand.NewSource(int64(k) * 7))
	var reports []core.Report
	for i := 0; i < k; i++ {
		theta := rng.Float64() * 2 * math.Pi
		reports = append(reports, core.Report{
			Level:      6,
			LevelIndex: 0,
			Pos:        geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			Grad:       geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)},
			Source:     -1,
		})
	}
	for i := 0; i < k/4; i++ {
		theta := rng.Float64() * 2 * math.Pi
		reports = append(reports, core.Report{
			Level:      8,
			LevelIndex: 1,
			Pos:        geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			Grad:       geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)},
			Source:     -1,
		})
	}
	return reports, levels
}

func BenchmarkReconstruct(b *testing.B) {
	bounds := geom.Rect(0, 0, 50, 50)
	for _, k := range []int{32, 128, 512, 2048} {
		reports, levels := benchReports(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := Reconstruct(reports, levels, bounds, 9, DefaultOptions())
				if m == nil {
					b.Fatal("nil map")
				}
			}
		})
	}
}

func BenchmarkMapRasterNaive(b *testing.B) {
	bounds := geom.Rect(0, 0, 50, 50)
	for _, k := range []int{32, 128, 512, 2048} {
		reports, levels := benchReports(k)
		m := Reconstruct(reports, levels, bounds, 9, DefaultOptions())
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ra := m.RasterNaive(100, 100); ra.Rows != 100 {
					b.Fatal("bad raster")
				}
			}
		})
	}
}

// benchChurn moves each report with probability 3% by a N(0, 0.3) step:
// a slowly advancing contour between monitoring rounds, with no report
// arriving, leaving or changing level.
func benchChurn(rng *rand.Rand, reports []core.Report) {
	for i := range reports {
		if rng.Float64() < 0.03 {
			reports[i].Pos.X += rng.NormFloat64() * 0.3
			reports[i].Pos.Y += rng.NormFloat64() * 0.3
		}
	}
}

// BenchmarkIncrementalUpdate times one 3%-churn round of the sink engine
// at k reports (benchReports' k + k/4), from new reports to a 100x100
// raster. incremental is Incremental.Update plus its raster refresh, at
// each worker width; full is the from-scratch alternative, Reconstruct
// plus a sequential RasterWorkers. Both replay the same seeded churn
// stream, drawn outside the timer. After the timer stops, the final
// round is checked against the other path with Equivalent, so a speedup
// only counts for byte-identical output. incremental also reports the
// share of Voronoi cells the timed rounds reused (cells_reused_pct).
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, k := range []int{128, 512, 1000} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("k=%d/incremental/workers=%d", k, workers), func(b *testing.B) {
				benchIncrementalUpdate(b, k, workers)
			})
		}
		b.Run(fmt.Sprintf("k=%d/full", k), func(b *testing.B) {
			benchIncrementalUpdate(b, k, 0)
		})
	}
}

// benchIncrementalUpdate runs the incremental path at the given worker
// width, or the full rebuild when workers is 0.
func benchIncrementalUpdate(b *testing.B, k, workers int) {
	const res, sink = 100, 9
	bounds := geom.Rect(0, 0, 50, 50)
	reports, levels := benchReports(k)
	rng := rand.New(rand.NewSource(int64(k) * 31))
	opts := DefaultOptions()
	opts.Workers = workers
	inc := NewIncremental(levels, bounds, opts)
	inc.Update(reports, sink)
	inc.Raster(res, res)
	before := inc.Stats()

	var full *Map
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchChurn(rng, reports)
		b.StartTimer()
		if workers > 0 {
			inc.Update(reports, sink)
			inc.Raster(res, res)
		} else {
			full = Reconstruct(reports, levels, bounds, sink, DefaultOptions())
			full.RasterWorkers(res, res, 1)
		}
	}
	b.StopTimer()

	// The full path's final round is checked against one incremental
	// update spanning every churn round since the warm-up.
	m := inc.Update(reports, sink)
	if workers > 0 {
		full = Reconstruct(inc.Arranged(), levels, bounds, sink, DefaultOptions())
		st := inc.Stats()
		if cells := st.CellsReused + st.CellsRecomputed - before.CellsReused - before.CellsRecomputed; cells > 0 {
			b.ReportMetric(100*float64(st.CellsReused-before.CellsReused)/float64(cells), "cells_reused_pct")
		}
	}
	if err := Equivalent(m, full, res, res); err != nil {
		b.Fatalf("k=%d workers=%d after %d rounds: %v", k, workers, b.N, err)
	}
	if err := EquivalentRaster(inc.Raster(res, res), full.RasterWorkers(res, res, 1)); err != nil {
		b.Fatalf("k=%d workers=%d after %d rounds: raster: %v", k, workers, b.N, err)
	}
}

// TestRasterWorkersDegenerateDims pins the edge cases of the worker-pool
// sweep: negative or zero dimensions yield an empty raster of clamped
// shape, worker counts at or below zero and far above the row count all
// degrade to the sequential result byte for byte.
func TestRasterWorkersDegenerateDims(t *testing.T) {
	maps := reconMaps(t)
	dims := [][2]int{{0, 10}, {10, 0}, {0, 0}, {-3, 7}, {7, -3}, {-1, -1}, {1, 1}, {3, 48}, {48, 3}}
	workers := []int{-5, -1, 0, 1, 2, 49, 1000}
	for mi, m := range maps {
		for _, d := range dims {
			rows, cols := d[0], d[1]
			wantRows, wantCols := rows, cols
			if wantRows < 0 {
				wantRows = 0
			}
			if wantCols < 0 {
				wantCols = 0
			}
			seq := m.RasterWorkers(rows, cols, 1)
			if seq.Rows != wantRows || seq.Cols != wantCols {
				t.Fatalf("map %d dims %v: got %dx%d, want clamp to %dx%d",
					mi, d, seq.Rows, seq.Cols, wantRows, wantCols)
			}
			if len(seq.Cells) != wantRows {
				t.Fatalf("map %d dims %v: %d cell rows, want %d", mi, d, len(seq.Cells), wantRows)
			}
			for _, w := range workers {
				got := m.RasterWorkers(rows, cols, w)
				if !rastersEqual(seq, got) {
					t.Fatalf("map %d dims %v workers %d: differs from sequential", mi, d, w)
				}
			}
			if wantRows > 0 && wantCols > 0 {
				if !rastersEqual(seq, m.RasterNaive(rows, cols)) {
					t.Fatalf("map %d dims %v: differs from naive reference", mi, d)
				}
			}
		}
	}
}

// TestRasterWorkersBoundedPool pins the sweep's pool shape: beyond the
// raster itself, a tall one-column raster allocates O(workers) — no
// goroutine, closure or cursor slice per row — so a request for millions
// of rows costs no more scheduling than one for a few.
func TestRasterWorkersBoundedPool(t *testing.T) {
	m := reconMaps(t)[4]
	for _, workers := range []int{1, 2, 4} {
		for _, rows := range []int{512, 8192} {
			base := testing.AllocsPerRun(3, func() { field.NewRaster(rows, 1) })
			got := testing.AllocsPerRun(3, func() { m.RasterWorkers(rows, 1, workers) })
			if extra := got - base; extra > float64(16*workers) {
				t.Errorf("RasterWorkers(%d, 1, %d): %.0f allocations beyond the raster's %.0f, want <= %d",
					rows, workers, extra, base, 16*workers)
			}
		}
	}
}
