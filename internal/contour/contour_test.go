package contour

import (
	"math"
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
)

func levels682() field.Levels { return field.Levels{Low: 6, High: 12, Step: 2} }

// circleReports fabricates n isoline reports around a circle: isopositions
// on the circle, gradients pointing outward (value decreases away from the
// center), which makes the disk the contour region.
func circleReports(center geom.Point, radius float64, n, levelIndex int, level float64) []core.Report {
	reports := make([]core.Report, 0, n)
	for k := 0; k < n; k++ {
		theta := 2 * math.Pi * float64(k) / float64(n)
		dir := geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)}
		reports = append(reports, core.Report{
			Level:      level,
			LevelIndex: levelIndex,
			Pos:        center.Add(dir.Scale(radius)),
			Grad:       dir,
			Source:     -1,
		})
	}
	return reports
}

func TestSingleReportHalfPlane(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	r := core.Report{
		Level: 6, LevelIndex: 0,
		Pos:  geom.Point{X: 25, Y: 25},
		Grad: geom.Vec{X: 1}, // value degrades toward +x: region is x <= 25
	}
	m := Reconstruct([]core.Report{r}, levels682(), bounds, 5, DefaultOptions())
	if got := m.ClassifyPoint(geom.Point{X: 10, Y: 25}); got != 1 {
		t.Errorf("left point class = %d, want 1", got)
	}
	if got := m.ClassifyPoint(geom.Point{X: 40, Y: 25}); got != 0 {
		t.Errorf("right point class = %d, want 0", got)
	}
}

func TestCircleRegionArea(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	center := geom.Point{X: 25, Y: 25}
	reports := circleReports(center, 10, 24, 0, 6)
	m := Reconstruct(reports, levels682(), bounds, 5, DefaultOptions())
	ra := m.Raster(200, 200)
	inner := 0
	for _, row := range ra.Cells {
		for _, v := range row {
			if v >= 1 {
				inner++
			}
		}
	}
	gotArea := float64(inner) / float64(200*200) * 2500
	wantArea := math.Pi * 100
	if math.Abs(gotArea-wantArea) > 0.15*wantArea {
		t.Errorf("disk area = %v, want ~%v", gotArea, wantArea)
	}
	// Sanity on individual points.
	if got := m.ClassifyPoint(center); got != 1 {
		t.Errorf("center class = %d, want 1", got)
	}
	if got := m.ClassifyPoint(geom.Point{X: 2, Y: 2}); got != 0 {
		t.Errorf("corner class = %d, want 0", got)
	}
}

// TestClassifyFarAndNonFinitePoints: classification of points far outside
// the field, or with non-finite coordinates, returns a class in range
// instead of panicking on a missing nearest site.
func TestClassifyFarAndNonFinitePoints(t *testing.T) {
	reports := circleReports(geom.Point{X: 25, Y: 25}, 10, 24, 0, 6)
	m := Reconstruct(reports, levels682(), geom.Rect(0, 0, 50, 50), 5, DefaultOptions())
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []geom.Point{{X: 1e12, Y: 0}, {X: -1e300, Y: 25}, {X: nan, Y: 0}, {X: 0, Y: nan}, {X: inf, Y: -inf}} {
		if got := m.ClassifyPoint(p); got < 0 || got > levels682().Count() {
			t.Errorf("ClassifyPoint(%v) = %d, want 0..%d", p, got, levels682().Count())
		}
	}
}

func TestCircleBoundaryNearTrueCircle(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	center := geom.Point{X: 25, Y: 25}
	reports := circleReports(center, 10, 24, 0, 6)
	m := Reconstruct(reports, levels682(), bounds, 5, DefaultOptions())
	pts := m.BoundaryPoints(0, 0.5)
	if len(pts) == 0 {
		t.Fatal("no boundary points")
	}
	for _, p := range pts {
		r := p.DistTo(center)
		// Chords of a 24-gon inscribed at radius 10 stay close to r=10.
		if r < 8 || r > 12 {
			t.Fatalf("boundary point %v at radius %v, want ~10", p, r)
		}
	}
}

func TestNestingMonotone(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	center := geom.Point{X: 25, Y: 25}
	var reports []core.Report
	reports = append(reports, circleReports(center, 15, 24, 0, 6)...)
	reports = append(reports, circleReports(center, 7, 16, 1, 8)...)
	m := Reconstruct(reports, levels682(), bounds, 5, DefaultOptions())
	if got := m.ClassifyPoint(center); got != 2 {
		t.Errorf("center class = %d, want 2", got)
	}
	if got := m.ClassifyPoint(geom.Point{X: 25, Y: 14}); got != 1 {
		t.Errorf("annulus class = %d, want 1", got)
	}
	if got := m.ClassifyPoint(geom.Point{X: 3, Y: 3}); got != 0 {
		t.Errorf("outside class = %d, want 0", got)
	}
}

func TestNestingClipsHigherLevels(t *testing.T) {
	// A level-1 (higher) region outside the level-0 region must be clipped
	// away by the recursive rule.
	bounds := geom.Rect(0, 0, 50, 50)
	var reports []core.Report
	reports = append(reports, circleReports(geom.Point{X: 15, Y: 25}, 6, 16, 0, 6)...)
	reports = append(reports, circleReports(geom.Point{X: 40, Y: 25}, 6, 16, 1, 8)...)
	m := Reconstruct(reports, levels682(), bounds, 5, DefaultOptions())
	// Center of the disjoint higher region: inner for level 1 alone but
	// outside level 0, so classification stops at 0.
	if got := m.ClassifyPoint(geom.Point{X: 40, Y: 25}); got != 0 {
		t.Errorf("disjoint higher region class = %d, want 0 (clipped)", got)
	}
	if got := m.ClassifyPoint(geom.Point{X: 15, Y: 25}); got != 1 {
		t.Errorf("lower region class = %d, want 1", got)
	}
}

func TestFallbackNoReports(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	// Sink value 9: levels 6 and 8 are below it (whole field above), 10
	// and 12 above it (no region).
	m := Reconstruct(nil, levels682(), bounds, 9, DefaultOptions())
	if got := m.ClassifyPoint(geom.Point{X: 25, Y: 25}); got != 2 {
		t.Errorf("fallback class = %d, want 2", got)
	}
	m2 := Reconstruct(nil, levels682(), bounds, 3, DefaultOptions())
	if got := m2.ClassifyPoint(geom.Point{X: 25, Y: 25}); got != 0 {
		t.Errorf("fallback class = %d, want 0", got)
	}
}

func TestReportCountAndPatchCount(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	reports := circleReports(geom.Point{X: 25, Y: 25}, 10, 12, 0, 6)
	m := Reconstruct(reports, levels682(), bounds, 5, DefaultOptions())
	if got := m.ReportCount(0); got != 12 {
		t.Errorf("ReportCount(0) = %d, want 12", got)
	}
	if got := m.ReportCount(1); got != 0 {
		t.Errorf("ReportCount(1) = %d, want 0", got)
	}
	if got := m.ReportCount(-1); got != 0 {
		t.Errorf("ReportCount(-1) = %d, want 0", got)
	}
	if got := m.PatchCount(-1); got != 0 {
		t.Errorf("PatchCount(-1) = %d", got)
	}
	// A ring of reports with slightly rotating gradients produces jogs, so
	// regulation should fire at least once.
	if got := m.PatchCount(0); got == 0 {
		t.Log("no regulation patches on circle (acceptable but unusual)")
	}
}

func TestRegulationImprovesCircleFit(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	center := geom.Point{X: 25, Y: 25}
	reports := circleReports(center, 10, 16, 0, 6)

	truth := make([]geom.Point, 0, 360)
	for k := 0; k < 360; k++ {
		th := float64(k) * math.Pi / 180
		truth = append(truth, center.Add(geom.Vec{X: math.Cos(th), Y: math.Sin(th)}.Scale(10)))
	}
	reg := Reconstruct(reports, levels682(), bounds, 5, Options{Regulate: true})
	unreg := Reconstruct(reports, levels682(), bounds, 5, Options{Regulate: false})
	hReg := geom.HausdorffDistance(truth, reg.BoundaryPoints(0, 0.25))
	hUnreg := geom.HausdorffDistance(truth, unreg.BoundaryPoints(0, 0.25))
	if hReg < 0 || hUnreg < 0 {
		t.Fatal("empty boundary")
	}
	// Regulation closes the gaps between chords, so it should not be
	// dramatically worse; typically it is better.
	if hReg > hUnreg+0.5 {
		t.Errorf("regulated Hausdorff %v much worse than unregulated %v", hReg, hUnreg)
	}
}

func TestBoundarySegmentsOutOfRange(t *testing.T) {
	m := Reconstruct(nil, levels682(), geom.Rect(0, 0, 10, 10), 0, DefaultOptions())
	if got := m.BoundarySegments(-1); got != nil {
		t.Error("negative level index should yield nil")
	}
	if got := m.BoundarySegments(99); got != nil {
		t.Error("huge level index should yield nil")
	}
	if got := m.BoundaryPoints(0, 1); got != nil {
		t.Error("no-report level should have no boundary")
	}
}

func TestRasterShape(t *testing.T) {
	m := Reconstruct(nil, levels682(), geom.Rect(0, 0, 10, 10), 9, DefaultOptions())
	ra := m.Raster(16, 32)
	if ra.Rows != 16 || ra.Cols != 32 {
		t.Fatalf("raster shape %dx%d", ra.Rows, ra.Cols)
	}
	for _, row := range ra.Cells {
		for _, v := range row {
			if v != 2 {
				t.Fatalf("fallback raster cell = %d, want 2", v)
			}
		}
	}
}

func TestReportsWithBogusLevelIndexIgnored(t *testing.T) {
	bounds := geom.Rect(0, 0, 50, 50)
	bad := core.Report{Level: 99, LevelIndex: 17, Pos: geom.Point{X: 1, Y: 1}, Grad: geom.Vec{X: 1}}
	m := Reconstruct([]core.Report{bad}, levels682(), bounds, 3, DefaultOptions())
	for i := 0; i < 4; i++ {
		if got := m.ReportCount(i); got != 0 {
			t.Errorf("level %d report count = %d, want 0", i, got)
		}
	}
}
