package geom

import "math"

// Polygon is a simple polygon given by its vertices in order. Operations in
// this package produce and expect counterclockwise orientation; use
// EnsureCCW to normalize.
type Polygon []Point

// Rect returns the axis-aligned rectangle [x0,x1] x [y0,y1] as a CCW polygon.
func Rect(x0, y0, x1, y1 float64) Polygon {
	return Polygon{
		{X: x0, Y: y0},
		{X: x1, Y: y0},
		{X: x1, Y: y1},
		{X: x0, Y: y1},
	}
}

// SignedArea returns the signed area of the polygon (positive when CCW).
func (pg Polygon) SignedArea() float64 {
	if len(pg) < 3 {
		return 0
	}
	var a float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		a += p.X*q.Y - q.X*p.Y
	}
	return a / 2
}

// Area returns the absolute area of the polygon.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// EnsureCCW returns the polygon with counterclockwise orientation,
// reversing the vertex order when necessary.
func (pg Polygon) EnsureCCW() Polygon {
	if pg.SignedArea() >= 0 {
		return pg
	}
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}

// Centroid returns the area centroid of the polygon. For degenerate
// polygons it falls back to the vertex average.
func (pg Polygon) Centroid() Point {
	if len(pg) == 0 {
		return Point{}
	}
	a := pg.SignedArea()
	if math.Abs(a) <= Eps {
		var c Point
		for _, p := range pg {
			c.X += p.X
			c.Y += p.Y
		}
		c.X /= float64(len(pg))
		c.Y /= float64(len(pg))
		return c
	}
	var cx, cy float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		w := p.X*q.Y - q.X*p.Y
		cx += (p.X + q.X) * w
		cy += (p.Y + q.Y) * w
	}
	return Point{X: cx / (6 * a), Y: cy / (6 * a)}
}

// Contains reports whether p lies inside or on the boundary of the polygon
// (even-odd rule with an Eps-wide boundary band).
func (pg Polygon) Contains(p Point) bool {
	if len(pg) < 3 {
		return false
	}
	inside := false
	n := len(pg)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		if (Segment{A: a, B: b}).DistToPoint(p) <= Eps {
			return true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xInt := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < xInt {
				inside = !inside
			}
		}
	}
	return inside
}

// Edges returns the polygon's boundary segments in order.
func (pg Polygon) Edges() []Segment {
	if len(pg) < 2 {
		return nil
	}
	out := make([]Segment, 0, len(pg))
	for i := range pg {
		out = append(out, Segment{A: pg[i], B: pg[(i+1)%len(pg)]})
	}
	return out
}

// Perimeter returns the total boundary length.
func (pg Polygon) Perimeter() float64 {
	var l float64
	for _, e := range pg.Edges() {
		l += e.Length()
	}
	return l
}

// BoundingBox returns the axis-aligned bounding box of the polygon.
func (pg Polygon) BoundingBox() (minX, minY, maxX, maxY float64) {
	if len(pg) == 0 {
		return 0, 0, 0, 0
	}
	minX, maxX = pg[0].X, pg[0].X
	minY, maxY = pg[0].Y, pg[0].Y
	for _, p := range pg[1:] {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	return minX, minY, maxX, maxY
}

// HalfPlane represents the set of points p with (p - Origin) . Normal <= 0,
// i.e. the side of the boundary line that the normal points away from.
type HalfPlane struct {
	Origin Point
	Normal Vec
}

// Side returns a negative value when p is strictly inside the half-plane,
// zero (within Eps) on the boundary and positive outside.
func (h HalfPlane) Side(p Point) float64 {
	return p.Sub(h.Origin).Dot(h.Normal)
}

// Contains reports whether p is inside the half-plane or on its boundary.
func (h HalfPlane) Contains(p Point) bool { return h.Side(p) <= Eps }

// ClipHalfPlane clips a convex polygon against a half-plane using the
// Sutherland-Hodgman rule, returning the (possibly empty) convex piece that
// lies inside the half-plane.
func (pg Polygon) ClipHalfPlane(h HalfPlane) Polygon {
	out, _, _ := pg.clipInto(nil, h, nil, nil, 0)
	return out
}

// clipInto is ClipHalfPlane writing its result into dst[:0], growing dst
// only when its capacity is short, so a caller that alternates two buffers
// clips without allocating. dst must not alias pg. The vertices, their
// arithmetic and their order are exactly ClipHalfPlane's; the result is nil
// below three vertices whatever dst held.
//
// lab, when non-nil, holds one edge label per vertex of pg: the label of
// the edge that starts there. The result's labels are then written into
// labDst[:0] (which must not alias lab) and returned: a kept vertex keeps
// its label, a crossing entering the half-plane keeps the label of the
// edge it cuts, and a crossing leaving it starts the edge along h's
// boundary, labelled site.
//
// within reports whether every crossing was interpolated inside its edge.
// It is false only when a vertex kept by the Eps band lies strictly
// outside the boundary and one of its edges crosses: the crossing is then
// extrapolated past that vertex, possibly far along a near-parallel edge.
func (pg Polygon) clipInto(dst Polygon, h HalfPlane, lab, labDst []int32, site int32) (clipped Polygon, labels []int32, within bool) {
	if len(pg) == 0 {
		return nil, nil, true
	}
	out := dst[:0]
	if lab != nil {
		lab = lab[:len(pg)]
		labels = labDst[:0]
	}
	within = true
	// Each vertex's Side is evaluated once, as next, and carried to the
	// following edge as cur.
	first := h.Side(pg[0])
	sc := first
	for i, cur := range pg {
		next, sn := pg[0], first
		if i+1 < len(pg) {
			next = pg[i+1]
			sn = h.Side(next)
		}
		curIn := sc <= Eps
		nextIn := sn <= Eps
		if curIn {
			out = append(out, cur)
			if lab != nil {
				labels = append(labels, lab[i])
			}
		}
		if curIn != nextIn {
			// The edge crosses the boundary; interpolate the crossing.
			t := sc / (sc - sn)
			within = within && t >= 0 && t <= 1
			out = append(out, Segment{A: cur, B: next}.PointAt(t))
			if lab != nil {
				if curIn {
					labels = append(labels, site)
				} else {
					labels = append(labels, lab[i])
				}
			}
		}
		sc = sn
	}
	out, labels = dedupeClosePoints(out, labels)
	return out, labels, within
}

// dedupeClosePoints removes, in place, consecutive (and wrap-around)
// duplicate vertices that clipping can introduce, returning nil when fewer
// than three vertices remain. lab, when non-nil, is pg's edge labels,
// compacted alongside: a vertex dropped as a duplicate of the last kept one
// hands that vertex its label, since the kept vertex now starts the dropped
// one's edge; a trailing vertex dropped as a duplicate of the first takes
// its own (vanishing) edge's label with it.
func dedupeClosePoints(pg Polygon, lab []int32) (Polygon, []int32) {
	if len(pg) == 0 {
		return nil, nil
	}
	// The write index never passes the read index, and each point is
	// compared with the last one kept, as a copying pass would.
	out := pg[:0]
	for k, p := range pg {
		if len(out) > 0 && out[len(out)-1].NearlyEqual(p) {
			if lab != nil {
				lab[len(out)-1] = lab[k]
			}
			continue
		}
		if lab != nil {
			lab[len(out)] = lab[k]
		}
		out = append(out, p)
	}
	for len(out) > 1 && out[0].NearlyEqual(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	if len(out) < 3 {
		return nil, nil
	}
	if lab != nil {
		lab = lab[:len(out)]
	}
	return out, lab
}
