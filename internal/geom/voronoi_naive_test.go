package geom

import "math"

// VoronoiNaive is the reference O(k^2) construction: every cell is clipped
// against the bisector of every other site in input order. It is the
// test-only oracle for the indexed construction's equivalence property
// tests and the pre-index baseline BenchmarkVoronoiNaive measures. Its
// diagrams carry no index, so queries on them take the linear-scan path.
func VoronoiNaive(sites []Point, bounds Polygon) *VoronoiDiagram {
	bounds = bounds.EnsureCCW()
	d := &VoronoiDiagram{
		Bounds: bounds,
		Cells:  make([]VoronoiCell, len(sites)),
	}
	for i, s := range sites {
		cell := VoronoiCell{Site: s, Index: i, horizonD2: math.Inf(1)}
		region := bounds
		for j, t := range sites {
			if j == i || region == nil {
				continue
			}
			if s.NearlyEqual(t) {
				// Duplicate sites split the plane ambiguously; assign the
				// region to the lower-indexed site.
				if j < i {
					region = nil
				}
				continue
			}
			region = region.ClipHalfPlane(bisectorHalfPlane(s, t))
		}
		cell.Region = region
		d.Cells[i] = cell
	}
	var sc voronoiScratch
	for i := range d.Cells {
		d.cellAdjacency(&sc, sites, i)
	}
	return d
}
