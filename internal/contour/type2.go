package contour

import (
	"isomap/internal/geom"
)

// type2Segments computes the type-2 boundaries of one isolevel: the pieces
// of Voronoi cell borders that close the contour region where adjacent
// cells disagree — the inner part of one cell touches the outer part of
// its neighbor, or the field border (Sec. 3.4: "the sink then merges the
// inner parts in different Voronoi cells and complements the boundaries to
// separate contour regions from outer area").
//
// For each cell's inner polygon, every edge that does not lie on the
// type-1 chord is a candidate; it survives when the area just across it
// (in the neighboring cell, or outside the field) is not inner.
func (lr *levelRecon) type2Segments(bounds geom.Polygon) []geom.Segment {
	if len(lr.sites) == 0 {
		return nil
	}
	var out []geom.Segment
	for i := range lr.diagram.Cells {
		cell := &lr.diagram.Cells[i]
		if cell.Region == nil || !lr.hasChord[i] {
			continue
		}
		inner := cell.Region.ClipHalfPlane(geom.HalfPlane{
			Origin: lr.sites[i],
			Normal: lr.grads[i],
		})
		if inner == nil {
			continue
		}
		chordLine := geom.LineThrough(lr.chords[i].A, lr.chords[i].B)
		for _, e := range inner.Edges() {
			if onLine(e, chordLine) {
				continue // type-1 piece
			}
			mid := e.Mid()
			// Probe just beyond the edge, away from the cell's site.
			outward := mid.Sub(lr.sites[i]).Unit().Scale(1e-4)
			probe := mid.Add(outward)
			if !bounds.Contains(probe) {
				// Field border: the region is closed by the border itself;
				// the paper draws no boundary there.
				continue
			}
			if lr.levelInner(probe) {
				continue // the neighbor is inner too: no boundary here
			}
			out = append(out, e)
		}
	}
	return out
}

// onLine reports whether both endpoints of a segment lie (within
// tolerance) on the line.
func onLine(s geom.Segment, l geom.Line) bool {
	const tol = 1e-6
	return distToLine(s.A, l) <= tol && distToLine(s.B, l) <= tol
}

func distToLine(p geom.Point, l geom.Line) float64 {
	d := l.Dir.Unit()
	v := p.Sub(l.Origin)
	return v.Sub(d.Scale(v.Dot(d))).Norm()
}

// FullBoundarySegments returns the complete boundary of one isolevel's
// contour regions: the regulated type-1 chords plus the type-2 closure
// pieces along Voronoi cell borders.
func (m *Map) FullBoundarySegments(levelIndex int) []geom.Segment {
	if levelIndex < 0 || levelIndex >= len(m.levels) {
		return nil
	}
	segs := m.BoundarySegments(levelIndex)
	segs = append(segs, m.levels[levelIndex].type2Segments(m.Bounds)...)
	return segs
}
