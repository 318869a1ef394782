package contour

import (
	"isomap/internal/field"
	"isomap/internal/geom"
)

// This file keeps the pre-index reference implementation of the raster
// path: sequential scanline, linear nearest-site scans, no patch bounding
// boxes. It is the oracle the indexed path is property-tested against and
// the baseline BenchmarkMapRasterNaive measures. It must stay
// byte-identical to Raster.

// RasterNaive rasterizes the map with the reference path, for equivalence
// tests and benchmarks; production callers use Raster.
func (m *Map) RasterNaive(rows, cols int) *field.Raster {
	x0, y0, x1, y1 := m.Bounds.BoundingBox()
	ra := field.NewRaster(rows, cols)
	for r := 0; r < rows; r++ {
		y := y0 + (y1-y0)*(float64(r)+0.5)/float64(rows)
		for c := 0; c < cols; c++ {
			x := x0 + (x1-x0)*(float64(c)+0.5)/float64(cols)
			ra.Cells[r][c] = m.classifyPointNaive(geom.Point{X: x, Y: y})
		}
	}
	return ra
}

// classifyPointNaive is ClassifyPoint over linear scans.
func (m *Map) classifyPointNaive(p geom.Point) int {
	idx := 0
	for _, lr := range m.levels {
		if !lr.levelInnerNaive(p) {
			break
		}
		idx++
	}
	return idx
}

// levelInnerNaive is levelInner with a linear nearest-site scan and
// unconditional point-in-triangle patch tests.
func (lr *levelRecon) levelInnerNaive(p geom.Point) bool {
	if len(lr.sites) == 0 {
		return lr.fallbackInner
	}
	best, bestDist := 0, p.Dist2To(lr.sites[0])
	for i := 1; i < len(lr.sites); i++ {
		if d := p.Dist2To(lr.sites[i]); d < bestDist {
			best, bestDist = i, d
		}
	}
	inner := p.Sub(lr.sites[best]).Dot(lr.grads[best]) <= 0
	for _, pa := range lr.patches {
		if pa.tri.Contains(p) {
			inner = !inner
		}
	}
	return inner
}
