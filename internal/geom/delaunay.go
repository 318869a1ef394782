package geom

import (
	"math"
	"slices"
)

// This file builds the Delaunay triangulation a bounded Voronoi diagram is
// the dual of (voronoi.go). Sites are inserted one at a time in Hilbert
// order (Bowyer–Watson): each insertion walks from the previous one's
// triangle to the triangle containing the new site, deletes the cavity of
// triangles whose circumcircle contains it, and fans new triangles from
// the site to the cavity's boundary. Consecutive sites are close along the
// curve, so the walks are short, and the expected cost is O(k log k)
// however the sites cluster.
//
// The hull is closed by ghost triangles: every hull edge a→b, directed with
// the interior on its right, carries a ghost triangle (a, b, ghost), whose
// "circumcircle" is the open half-plane left of a→b plus the open edge
// itself. A site outside the hull conflicts with exactly the ghosts whose
// hull edges it sees, so inserting it needs no special case, and the
// ghosts around a hull site give its unbounded cell's two rays. The ghost
// vertex is always v[2] of a ghost triangle: an insertion replaces the
// vertex opposite a cavity boundary edge, and a ghost's boundary edges are
// either its hull edge (the ghost vertex is replaced: the new triangle is
// real) or an edge through the ghost vertex (which stays at index 2).

// dtri is one triangle of the triangulation. Its vertices v are site
// indices, counterclockwise for a real triangle; n[i] is the triangle
// across the edge opposite v[i].
type dtri struct {
	v [3]int32
	n [3]int32
}

// cavityEdge is one boundary edge a→b of an insertion's cavity, the edge
// opposite vertex k of a cavity triangle, with triangle nb outside it and
// nb.n[nbk] pointing back in. The new triangle nt replaces vertex k by
// the inserted site.
type cavityEdge struct {
	a, b, k, nb, nbk, nt int32
}

// delaunay is the triangulation and the working memory of one build. It
// lives for one VoronoiWithIndex call, on its goroutine.
type delaunay struct {
	sites []Point
	ghost int32 // the ghost vertex: len(sites)
	tris  []dtri
	// vt[v] is a triangle incident to site v, valid for inserted sites.
	vt []int32
	// last is a real triangle made by the latest insertion, where the
	// next walk starts.
	last int32
	// Insertion scratch. mark[t] is the last insertion that tested
	// triangle t: 2·stamp when t is in that insertion's cavity,
	// 2·stamp+1 when it was tested and is not. byStart[a] is the boundary
	// edge that starts at a.
	stamp   int32
	mark    []int32
	cavity  []int32
	bnd     []cavityEdge
	byStart []int32
}

func (dt *delaunay) isGhost(t int32) bool { return dt.tris[t].v[2] == dt.ghost }

// triangulate builds the Delaunay triangulation of the sites listed in
// keep, which must be distinct and finite, reordering keep. It reports
// false, building nothing, when the kept sites are all collinear.
func (dt *delaunay) triangulate(sites []Point, keep []int32) bool {
	n := len(sites)
	dt.sites, dt.ghost = sites, int32(n)
	hilbertSort(sites, keep)
	// The first triangle needs a site off the line of the first two; the
	// sites before it are inserted afterwards like any other.
	m := 2
	for m < len(keep) && orient(sites[keep[0]], sites[keep[1]], sites[keep[m]]) == 0 {
		m++
	}
	if m == len(keep) {
		return false
	}
	keep[2], keep[m] = keep[m], keep[2]
	a, b, c := keep[0], keep[1], keep[2]
	if orient(sites[a], sites[b], sites[c]) < 0 {
		a, b = b, a
	}
	// k vertices make 2k − 2 triangles, ghosts included, and an insertion
	// adds two.
	dt.tris = make([]dtri, 0, 2*len(keep)-2)
	dt.mark = make([]int32, 2*len(keep)-2)
	dt.vt = make([]int32, n+1)
	dt.byStart = make([]int32, n+1)
	g := dt.ghost
	// Triangle 0 is real; 1, 2 and 3 are the ghosts of its edges a→b,
	// b→c and c→a, each directed with the interior on the right.
	dt.tris = append(dt.tris,
		dtri{v: [3]int32{a, b, c}, n: [3]int32{2, 3, 1}},
		dtri{v: [3]int32{b, a, g}, n: [3]int32{3, 2, 0}},
		dtri{v: [3]int32{c, b, g}, n: [3]int32{1, 3, 0}},
		dtri{v: [3]int32{a, c, g}, n: [3]int32{2, 1, 0}},
	)
	dt.vt[a], dt.vt[b], dt.vt[c] = 0, 0, 0
	for _, p := range keep[3:] {
		dt.insert(p)
	}
	return true
}

// hilbertSort orders keep along a Hilbert curve over the kept sites'
// bounding box, ties by index.
func hilbertSort(sites []Point, keep []int32) {
	x0, y0 := math.Inf(1), math.Inf(1)
	x1, y1 := math.Inf(-1), math.Inf(-1)
	for _, i := range keep {
		s := sites[i]
		x0, x1 = min(x0, s.X), max(x1, s.X)
		y0, y1 = min(y0, s.Y), max(y1, s.Y)
	}
	scale := (hilbertSide - 1) / max(x1-x0, y1-y0, math.SmallestNonzeroFloat64)
	keys := make([]uint64, len(keep))
	for k, i := range keep {
		s := sites[i]
		hx, hy := uint32((s.X-x0)*scale), uint32((s.Y-y0)*scale)
		keys[k] = uint64(hilbertKey(hx, hy))<<32 | uint64(i)
	}
	slices.Sort(keys)
	for k, key := range keys {
		keep[k] = int32(uint32(key))
	}
}

// hilbertSide is the side of the grid hilbertSort orders sites on: fine
// enough that the cells of a level's few thousand sites rarely share a
// grid cell, coarse enough for a short key loop.
const hilbertSide = 1 << 10

// hilbertKey returns the position of cell (x, y) along the Hilbert curve
// through the hilbertSide × hilbertSide grid.
func hilbertKey(x, y uint32) uint32 {
	var d uint32
	for s := uint32(hilbertSide / 2); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		if ry == 0 {
			if rx == 1 {
				x, y = hilbertSide-1-x, hilbertSide-1-y
			}
			x, y = y, x
		}
	}
	return d
}

// conflicts reports whether site p lies in triangle t's open circumdisk:
// for a ghost, strictly left of its hull edge or inside that edge.
func (dt *delaunay) conflicts(t int32, p Point) bool {
	tr := &dt.tris[t]
	a, b := dt.sites[tr.v[0]], dt.sites[tr.v[1]]
	if tr.v[2] != dt.ghost {
		return incircle(a, b, dt.sites[tr.v[2]], p) > 0
	}
	switch o := orient(a, b, p); {
	case o > 0:
		return true
	case o < 0:
		return false
	}
	// Collinear with the hull edge: inside it when strictly between its
	// ends, along whichever axis the edge is not perpendicular to.
	if a.X != b.X {
		return (p.X-a.X)*(p.X-b.X) < 0
	}
	return (p.Y-a.Y)*(p.Y-b.Y) < 0
}

// locate returns a triangle in conflict with p: the real triangle
// containing it, found by a visibility walk from the last insertion, or
// the ghost of a hull edge that p lies strictly outside of. The walk
// terminates on a Delaunay triangulation.
func (dt *delaunay) locate(p Point) int32 {
	t := dt.last
	for {
		tr := &dt.tris[t]
		next := int32(-1)
		for k := 0; k < 3; k++ {
			a, b := tr.v[(k+1)%3], tr.v[(k+2)%3]
			if orient(dt.sites[a], dt.sites[b], p) < 0 {
				next = tr.n[k]
				break
			}
		}
		if next < 0 || dt.isGhost(next) {
			if next >= 0 {
				return next
			}
			return t
		}
		t = next
	}
}

// insert adds site p: it deletes the triangles whose circumdisk contains
// p (the cavity, connected and star-shaped from p) and fans one new
// triangle from p to each boundary edge of the cavity, reusing the
// deleted slots; a cavity of c triangles has c + 2 boundary edges.
func (dt *delaunay) insert(p int32) {
	pt := dt.sites[p]
	dt.stamp++
	in, out := 2*dt.stamp, 2*dt.stamp+1
	t0 := dt.locate(pt)
	dt.mark[t0] = in
	// cavity is the search's queue and, once drained, the cavity.
	cavity := append(dt.cavity[:0], t0)
	bnd := dt.bnd[:0]
	for q := 0; q < len(cavity); q++ {
		t := cavity[q]
		for k := int32(0); k < 3; k++ {
			nb := dt.tris[t].n[k]
			switch dt.mark[nb] {
			case in:
				continue
			case out:
			default:
				if dt.conflicts(nb, pt) {
					dt.mark[nb] = in
					cavity = append(cavity, nb)
					continue
				}
				dt.mark[nb] = out
			}
			tv := &dt.tris[t].v
			e := cavityEdge{a: tv[(k+1)%3], b: tv[(k+2)%3], k: k, nb: nb}
			for dt.tris[nb].n[e.nbk] != t {
				e.nbk++
			}
			bnd = append(bnd, e)
		}
	}
	for j := range bnd {
		e := &bnd[j]
		if j < len(cavity) {
			e.nt = cavity[j]
		} else {
			e.nt = int32(len(dt.tris))
			dt.tris = append(dt.tris, dtri{})
			if len(dt.mark) < len(dt.tris) {
				dt.mark = append(dt.mark, 0)
			}
		}
	}
	for j := range bnd {
		e := &bnd[j]
		var tr dtri
		tr.v[e.k], tr.v[(e.k+1)%3], tr.v[(e.k+2)%3] = p, e.a, e.b
		tr.n[e.k] = e.nb
		dt.tris[e.nt], dt.mark[e.nt] = tr, 0
		dt.tris[e.nb].n[e.nbk] = e.nt
		dt.byStart[e.a] = int32(j)
		dt.vt[e.a] = e.nt
		if e.a != dt.ghost && e.b != dt.ghost {
			dt.vt[p], dt.last = e.nt, e.nt
		}
	}
	// The new triangle on edge a→b meets the one on b→c along p–b.
	for j := range bnd {
		e := &bnd[j]
		f := &bnd[dt.byStart[e.b]]
		dt.tris[e.nt].n[(e.k+1)%3] = f.nt
		dt.tris[f.nt].n[(f.k+2)%3] = e.nt
	}
	dt.cavity, dt.bnd = cavity, bnd
}
