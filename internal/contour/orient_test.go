package contour

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"isomap/internal/core"
	"isomap/internal/geom"
)

// wobblyReports places n reports of one level along a closed wobbly curve
// around center with slight position noise, each gradient along the
// curve's outward normal: the shape of a contour level's isoline reports,
// on which adjacent chords regulate often.
func wobblyReports(rng *rand.Rand, center geom.Point, radius float64, n, levelIndex int) []core.Report {
	reports := make([]core.Report, 0, n)
	for k := 0; k < n; k++ {
		th := rng.Float64() * 2 * math.Pi
		r := radius + 0.15*radius*math.Sin(3*th)
		dr := 0.45 * radius * math.Cos(3*th) // dr/dθ
		pos := geom.Point{X: center.X + r*math.Cos(th), Y: center.Y + r*math.Sin(th)}
		pos.X += rng.NormFloat64() * 0.05
		pos.Y += rng.NormFloat64() * 0.05
		// The tangent is (dr cos − r sin, dr sin + r cos); its right-hand
		// normal points outward.
		tx, ty := dr*math.Cos(th)-r*math.Sin(th), dr*math.Sin(th)+r*math.Cos(th)
		reports = append(reports, core.Report{
			LevelIndex: levelIndex,
			Pos:        pos,
			Grad:       geom.Vec{X: ty, Y: -tx}.Unit(),
			Source:     -1,
		})
	}
	return reports
}

// rotateCells returns a copy of cells with every region's vertex list
// started at another vertex (cell i by i+1 places). The neighbour and
// shared-edge lists keep their order: they name the same edges, and
// regulate visits them in list order, re-anchoring chords as it goes, so
// a reordered list would move patch vertices by rounding alone.
func rotateCells(cells []geom.VoronoiCell) []geom.VoronoiCell {
	out := slices.Clone(cells)
	for i := range out {
		if n := len(out[i].Region); n > 0 {
			r := (i + 1) % n
			out[i].Region = append(slices.Clone(out[i].Region[r:]), out[i].Region[:r]...)
		}
	}
	return out
}

// TestChordsIndependentOfRegionStart rebuilds every level's chords and
// regulation from its diagram with each cell's vertex list rotated and
// requires the same patches and raster bytes: a chord's
// orientation, and with it regulate's angle window, must not depend on the
// vertex a region happens to start at.
func TestChordsIndependentOfRegionStart(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	rng := rand.New(rand.NewSource(3))
	var reports []core.Report
	reports = append(reports, wobblyReports(rng, geom.Point{X: 25, Y: 25}, 15, 160, 0)...)
	reports = append(reports, wobblyReports(rng, geom.Point{X: 18, Y: 30}, 6, 70, 1)...)
	reports = append(reports, wobblyReports(rng, geom.Point{X: 33, Y: 17}, 7, 90, 1)...)
	bench, _ := benchReports(200)
	for _, r := range bench {
		r.LevelIndex += 2
		reports = append(reports, r)
	}
	levels := levels682()
	m := Reconstruct(reports, levels, bounds, 0, DefaultOptions())
	rot := &Map{Levels: m.Levels, Bounds: m.Bounds, levels: make([]*levelRecon, len(m.levels))}
	patches := 0
	for i, lr := range m.levels {
		r := &levelRecon{level: lr.level, index: lr.index, sites: lr.sites, grads: lr.grads,
			nn: lr.nn, fallbackInner: lr.fallbackInner}
		if lr.diagram != nil {
			d := *lr.diagram
			d.Cells = rotateCells(d.Cells)
			r.diagram = &d
			r.shape(DefaultOptions())
		}
		rot.levels[i] = r
		if len(r.patches) != len(lr.patches) {
			t.Fatalf("level %d: %d patches with rotated regions, %d without", i, len(r.patches), len(lr.patches))
		}
		for k := range lr.patches {
			if !slices.Equal(r.patches[k].tri, lr.patches[k].tri) {
				t.Fatalf("level %d patch %d: %v with rotated regions, %v without", i, k, r.patches[k].tri, lr.patches[k].tri)
			}
		}
		patches += len(lr.patches)
	}
	if patches < 20 {
		t.Fatalf("only %d regulation patches: the input does not exercise regulation", patches)
	}
	if !rastersEqual(rot.RasterWorkers(128, 128, 1), m.RasterWorkers(128, 128, 1)) {
		t.Fatal("rasters differ with rotated regions")
	}
}
