package geom

import (
	"cmp"
	"math"
	"slices"
)

// VoronoiCell is one cell of a bounded Voronoi diagram: the convex region of
// the bounding polygon closer to Site than to any other site.
type VoronoiCell struct {
	// Site is the generating point (an isoposition in Iso-Map).
	Site Point
	// Index is the position of the site in the input slice.
	Index int
	// Region is the cell polygon (CCW). Nil for a site with a
	// lower-index NearlyEqual twin, a non-finite site, a site whose cell
	// misses the bounds, and every site of bounds with fewer than three
	// vertices or no area.
	Region Polygon
	// Neighbors lists the indices of sites whose cells share a boundary
	// edge with this cell, aligned with SharedEdges.
	Neighbors []int
	// SharedEdges[i] is the (clipped) bisector edge shared with
	// Neighbors[i].
	SharedEdges []Segment
	// certified marks a cell that meets the premises of NearestFrom's
	// certificate (see certifies).
	certified bool
}

// VoronoiDiagram is a bounded Voronoi diagram over a convex boundary.
type VoronoiDiagram struct {
	// Bounds is the clipping polygon (typically the field rectangle).
	Bounds Polygon
	// Cells holds one cell per input site, in input order.
	Cells []VoronoiCell
	// index, when set, answers nearest-site queries for CellContaining
	// without scanning all sites. Diagrams built by Voronoi carry one;
	// zero-value diagrams fall back to linear scans.
	index *NNIndex
	// walk is NearestFrom's neighbour and margin table, built with the
	// cells.
	walk voronoiWalk
}

// Voronoi computes the Voronoi diagram of sites bounded by the convex
// polygon bounds, as the dual of the sites' Delaunay triangulation
// (delaunay.go): a cell's vertices are the circumcentres of the triangles
// around its site, and its neighbours are the site's Delaunay neighbours
// whose dual edge survives inside the bounds. The expected cost is
// O(k log k) however the sites cluster.
//
// Sites that are not finite, and sites with a lower-index NearlyEqual twin,
// get a nil Region and no neighbours, and no cell lists them. Bounds with
// fewer than three vertices or no area give every cell a nil Region.
func Voronoi(sites []Point, bounds Polygon) *VoronoiDiagram {
	return VoronoiWithIndex(sites, bounds, nil)
}

// VoronoiWithIndex is Voronoi reusing a prebuilt index over the same sites,
// so callers that also run nearest-site queries (the contour reconstructor)
// share one index per level. index == nil builds a fresh one.
func VoronoiWithIndex(sites []Point, bounds Polygon, index *NNIndex) *VoronoiDiagram {
	bounds = bounds.EnsureCCW()
	if index == nil {
		index = NewNNIndex(sites, bounds)
	}
	d := &VoronoiDiagram{
		Bounds: bounds,
		Cells:  make([]VoronoiCell, len(sites)),
		index:  index,
		walk:   voronoiWalk{bounds: boundsHalfPlanes(bounds)},
	}
	for i, s := range sites {
		d.Cells[i] = VoronoiCell{Site: s, Index: i}
	}
	if d.walk.bounds != nil && len(sites) > 0 {
		b := voronoiBuild{d: d, sites: sites, edges: d.walk.bounds}
		b.build()
	}
	d.walk.link(d.Cells)
	return d
}

// noLabel labels the closing edges of an unbounded cell, which lie
// outside the bounds and never survive the clip.
const noLabel = math.MinInt32

// voronoiBuild is the working memory of one diagram build: the
// triangulation and the buffers a cell is assembled and clipped in. Each
// VoronoiWithIndex call makes its own and uses it on its own goroutine;
// no diagram keeps a reference, so all of it is garbage once the build
// returns, and a kept cell copies its region and adjacency out.
type voronoiBuild struct {
	d     *VoronoiDiagram
	sites []Point
	dt    delaunay
	// twin[i] holds when another site is NearlyEqual to site i.
	twin []bool
	// edges[e] is bounds edge e (from Bounds[e] to Bounds[e+1]) as a
	// half-plane with unit outward normal, zero for a degenerate edge
	// (boundsHalfPlanes); a region edge along it is labelled −1−e. centre
	// and radius give a disk holding the bounds.
	edges  []HalfPlane
	centre Point
	radius float64
	// out holds the kept cells' regions and adjacency lists.
	out cellArena
	// poly and lab are the two buffers a cell's region and edge labels
	// alternate between while it is clipped; the label of a vertex names
	// the edge that starts there.
	poly [2]Polygon
	lab  [2][]int32
}

// build fills every cell of b.d.
func (b *voronoiBuild) build() {
	bounds := b.d.Bounds
	x0, y0, x1, y1 := bounds.BoundingBox()
	b.centre = Point{X: (x0 + x1) / 2, Y: (y0 + y1) / 2}
	for _, a := range bounds {
		b.radius = max(b.radius, a.DistTo(b.centre))
	}
	keep := b.markTwins()
	switch {
	case len(keep) == 1:
		// The whole plane is the one site's cell: the region is the
		// bounds itself, shared.
		b.keepCell(keep[0], bounds, nil, math.Inf(1))
	case len(keep) > 1:
		if b.dt.triangulate(b.sites, keep) {
			b.buildDual(keep)
		} else {
			b.buildCollinear(keep)
		}
	}
}

// markTwins fills b.twin and returns the sites that take part in the
// diagram: the finite ones without a lower-index NearlyEqual twin. Twins
// lie in the same or adjacent index buckets, so each site scans the
// buckets its Eps box touches.
func (b *voronoiBuild) markTwins() []int32 {
	ix := b.d.index
	b.twin = make([]bool, len(b.sites))
	keep := make([]int32, 0, len(b.sites))
	for i, s := range b.sites {
		if math.IsNaN(s.X) || math.IsNaN(s.Y) || math.IsInf(s.X, 0) || math.IsInf(s.Y, 0) {
			continue
		}
		bx0, by0 := ix.bucketCoords(Point{X: s.X - Eps, Y: s.Y - Eps})
		bx1, by1 := ix.bucketCoords(Point{X: s.X + Eps, Y: s.Y + Eps})
		lower := false
		for by := max(by0, 0); by <= min(by1, ix.ny-1); by++ {
			for _, j := range ix.rowSpan(bx0, bx1, by) {
				if int(j) != i && s.NearlyEqual(b.sites[j]) {
					b.twin[i] = true
					lower = lower || int(j) < i
				}
			}
		}
		if !lower {
			keep = append(keep, int32(i))
		}
	}
	return keep
}

// buildDual builds every kept site's cell from the triangulation.
func (b *voronoiBuild) buildDual(keep []int32) {
	// Every listed neighbour is a Delaunay edge seen from one end; k
	// sites, h of them on the hull, have 3k − 3 − h edges. Every region
	// vertex starts a listed edge or a piece of a bounds edge, and the
	// hull cells, always clipped, hold most of the latter.
	h := 0
	for t := range b.dt.tris {
		if b.dt.isGhost(int32(t)) {
			h++
		}
	}
	adj := 2 * (3*len(keep) - 3 - h)
	b.out.reserve(adj, adj+2*h+2*len(b.edges))
	for _, v := range keep {
		poly, lab, clip, near2 := b.dualCell(v)
		if clip {
			poly, lab = b.clipToBounds(poly, lab)
		} else {
			poly, lab = dedupeClosePoints(poly, lab)
		}
		b.keepCell(v, poly, lab, near2)
	}
}

// outside reports whether p lies more than Eps outside some bounds edge,
// where a clip would move it.
func (b *voronoiBuild) outside(p Point) bool {
	for _, e := range b.edges {
		if e.Side(p) > Eps {
			return true
		}
	}
	return false
}

// dualCell assembles site v's cell in b.poly[0] and b.lab[0]: the
// circumcentres of the triangles around v, counterclockwise, the edge from
// each to the next labelled with the Delaunay neighbour it is dual to.
// A hull site's cell is unbounded; its two rays are closed far past the
// bounds (closeHull). clip reports whether the cell must be clipped to
// the bounds (it is unbounded or has a vertex outside them), and near2 is
// the squared distance to v's nearest Delaunay neighbour.
func (b *voronoiBuild) dualCell(v int32) (poly Polygon, lab []int32, clip bool, near2 float64) {
	dt := &b.dt
	poly, lab = b.poly[0][:0], b.lab[0][:0]
	near2 = math.Inf(1)
	s := b.sites[v]
	ghostAt, ghost := -1, int32(-1)
	t0 := dt.vt[v]
	for t := t0; ; {
		tr := &dt.tris[t]
		i := 0
		for tr.v[i] != v {
			i++
		}
		next := tr.v[(i+2)%3]
		if tr.v[2] == dt.ghost {
			// The ghost with v first follows the last real triangle; the
			// ray it stands for starts at that triangle's circumcentre.
			if i == 0 {
				ghostAt, ghost = len(poly), t
			}
			poly = append(poly, Point{})
			clip = true
		} else {
			cc := b.circumcentre(t)
			poly = append(poly, cc)
			clip = clip || b.outside(cc)
			near2 = min(near2, s.Dist2To(b.sites[tr.v[(i+1)%3]]), s.Dist2To(b.sites[next]))
		}
		if next == dt.ghost {
			lab = append(lab, noLabel)
		} else {
			lab = append(lab, next)
		}
		if t = tr.n[(i+1)%3]; t == t0 {
			break
		}
	}
	if ghostAt >= 0 {
		poly, lab = b.closeHull(ghost, poly, lab, ghostAt)
	}
	b.poly[0], b.lab[0] = poly, lab
	return poly, lab, clip, near2
}

// closeHull fills in the two ghost slots of a hull site's fan: g1, the
// ghost with the site first, at ghostAt, and the ghost after it at the
// next position. They become points far along the cell's two rays, the
// bisectors of the site's hull edges. With ρ the radius, about the bounds'
// centre C, of a disk holding the bounds and the cell's circumcentres,
// the rays end at distance L = 4ρ from their circumcentres; when they
// diverge by more than 90° a third point, L along their mean direction,
// joins them. Every closing edge then lies farther than ρ from C (a
// convex combination of two unit vectors at most 90° apart has norm
// ≥ cos 45°, and 4ρ·cos 45° − ρ > ρ), so the closed polygon lies in the
// cell and holds all of the cell the bounds can meet.
func (b *voronoiBuild) closeHull(g1 int32, poly Polygon, lab []int32, ghostAt int) (Polygon, []int32) {
	dt := &b.dt
	n := len(poly)
	rho := b.radius
	for k, p := range poly {
		if k != ghostAt && k != (ghostAt+1)%n {
			rho = max(rho, p.DistTo(b.centre))
		}
	}
	l := 4 * rho
	// far returns ghost t's far point and ray direction: from the
	// circumcentre across its hull edge, along the edge's outward normal.
	far := func(t int32) (Point, Point, Vec) {
		tr := &dt.tris[t]
		e := b.sites[tr.v[1]].Sub(b.sites[tr.v[0]])
		dir := Vec{X: -e.Y, Y: e.X}.Unit()
		c := b.circumcentre(tr.n[2])
		return c, c.Add(dir.Scale(l)), dir
	}
	// The fan turns from g1 across its edge through the ghost vertex.
	g2 := dt.tris[g1].n[1]
	c1, f1, d1 := far(g1)
	c2, f2, d2 := far(g2)
	poly[ghostAt], poly[(ghostAt+1)%n] = f1, f2
	if d1.Dot(d2) < 0 {
		fm := c1.Mid(c2).Add(d1.Add(d2).Unit().Scale(l))
		poly = slices.Insert(poly, ghostAt+1, fm)
		lab = slices.Insert(lab, ghostAt+1, int32(noLabel))
	}
	return poly, lab
}

// circumcentre returns real triangle t's circumcentre. Each of its
// three cells computes it the same way, so they share the vertex bit for
// bit.
func (b *voronoiBuild) circumcentre(t int32) Point {
	v := &b.dt.tris[t].v
	return circumcentre(b.sites[v[0]], b.sites[v[1]], b.sites[v[2]])
}

// circumcentre returns the centre of the circle through the
// counterclockwise triangle a, b, c. A triangle too flat for the float
// orientation to keep its sign still gets a finite centre far along the
// right direction: the direction is the numerators', the orientation only
// scales it.
func circumcentre(a, b, c Point) Point {
	bx, by := b.X-a.X, b.Y-a.Y
	cx, cy := c.X-a.X, c.Y-a.Y
	b2, c2 := bx*bx+by*by, cx*cx+cy*cy
	d := 2 * (bx*cy - by*cx)
	if !(d > 0) {
		d = max(-d, 0x1p-60*(b2+c2))
	}
	return Point{X: a.X + (cy*b2-by*c2)/d, Y: a.Y + (bx*c2-cx*b2)/d}
}

// clipToBounds clips a cell held in one of b's buffers to every bounds
// edge, labelling the pieces of bounds edge e with −1−e. The result is
// nil when nothing of the cell lies in the bounds.
func (b *voronoiBuild) clipToBounds(poly Polygon, lab []int32) (Polygon, []int32) {
	cur := 0
	for e, h := range b.edges {
		if h.Normal == (Vec{}) {
			continue
		}
		poly, lab, _ = poly.clipInto(b.poly[1-cur], h, lab, b.lab[1-cur], int32(-1-e))
		cur = 1 - cur
		b.poly[cur], b.lab[cur] = poly, lab
		if poly == nil {
			return nil, nil
		}
	}
	return poly, lab
}

// buildCollinear builds the cells of kept sites that all lie on one line:
// parallel strips, each the bounds clipped by the bisectors with its
// predecessor and successor along the line.
func (b *voronoiBuild) buildCollinear(keep []int32) {
	s0 := b.sites[keep[0]]
	dir := b.sites[keep[1]].Sub(s0)
	slices.SortFunc(keep, func(i, j int32) int {
		return cmp.Compare(b.sites[i].Sub(s0).Dot(dir), b.sites[j].Sub(s0).Dot(dir))
	})
	bounds := b.d.Bounds
	boundsLab := make([]int32, len(bounds))
	for k := range boundsLab {
		boundsLab[k] = int32(-1 - k)
	}
	for m, v := range keep {
		s := b.sites[v]
		poly, lab := bounds, boundsLab
		near2 := math.Inf(1)
		cur := 0
		for _, u := range []int{m - 1, m + 1} {
			if u < 0 || u >= len(keep) || poly == nil {
				continue
			}
			t := b.sites[keep[u]]
			near2 = min(near2, s.Dist2To(t))
			poly, lab, _ = poly.clipInto(b.poly[1-cur], bisectorHalfPlane(s, t), lab, b.lab[1-cur], keep[u])
			cur = 1 - cur
			b.poly[cur], b.lab[cur] = poly, lab
		}
		b.keepCell(v, poly, lab, near2)
	}
}

// keepCell stores region (which may live in b's buffers) as site i's
// cell: copied out at its exact size unless it is the bounds itself, with
// the adjacency read off the edge labels in region order, both lists at
// their exact size (nil when no edge has a neighbour).
// near2 is the squared distance to the site's nearest Delaunay neighbour
// (for collinear sites, its nearest neighbour along the line).
func (b *voronoiBuild) keepCell(i int32, region Polygon, lab []int32, near2 float64) {
	c := &b.d.Cells[i]
	if region == nil {
		return
	}
	if lab != nil {
		region = append(b.out.points(len(region)), region...)
	}
	c.Region = region
	n := 0
	for _, j := range lab {
		if j >= 0 {
			n++
		}
	}
	if n > 0 {
		c.Neighbors, c.SharedEdges = b.out.adjacency(n)
		for k, j := range lab {
			if j >= 0 {
				c.Neighbors = append(c.Neighbors, int(j))
				c.SharedEdges = append(c.SharedEdges, Segment{A: region[k], B: region[(k+1)%len(region)]})
			}
		}
	}
	c.certified = b.certifies(i, region, lab, near2)
}

// certifies reports whether site i's cell meets the premises of
// NearestFrom's certificate (DESIGN.md "Certified-walk rasterization"):
// every region vertex lies within walkMargin/4 of the line of each of its
// two edges — the label's bisector, or a bounds edge; the site has no
// Delaunay neighbour or twin within walkMinSep; and it lies more than
// walkMargin inside the bounds.
func (b *voronoiBuild) certifies(i int32, region Polygon, lab []int32, near2 float64) bool {
	s := b.sites[i]
	if len(region) < 3 || b.twin[i] || !(near2 >= walkMinSep*walkMinSep) || !b.d.walk.inBounds(s) {
		return false
	}
	if lab == nil {
		// The single site's cell is the bounds.
		return true
	}
	const eps = walkMargin / 4
	onLine := func(v Point, l int32) bool {
		if l >= 0 {
			t := b.sites[l]
			n := t.Sub(s)
			return math.Abs(v.Sub(s.Mid(t)).Dot(n)) <= eps*n.Norm()
		}
		e := -1 - int(l)
		return e < len(b.edges) && b.edges[e].Normal != (Vec{}) && math.Abs(b.edges[e].Side(v)) <= eps
	}
	prev := lab[len(lab)-1]
	for k, v := range region {
		if !onLine(v, prev) || !onLine(v, lab[k]) {
			return false
		}
		prev = lab[k]
	}
	return true
}

// cellArena carves the kept cells' regions, neighbour lists and shared
// edges out of a few shared blocks instead of three allocations per cell.
// Every slice handed out is capped at its own length, so no two cells
// share writable memory: an append to one reallocates it.
type cellArena struct {
	pts  []Point
	nbrs []int
	segs []Segment
}

// reserve sizes the blocks for about adj adjacency entries and pts
// region vertices in all.
func (a *cellArena) reserve(adj, pts int) {
	a.pts = make([]Point, 0, pts)
	a.nbrs, a.segs = make([]int, 0, adj), make([]Segment, 0, adj)
}

// grow returns n elements of *blk as an empty slice of capacity n, moving
// to a new block, sized for the rest of the build, when *blk is full.
func grow[T any](blk *[]T, n int) []T {
	if cap(*blk)-len(*blk) < n {
		*blk = make([]T, 0, max(n, 64, cap(*blk)/4))
	}
	k := len(*blk)
	*blk = (*blk)[:k+n]
	return (*blk)[k : k : k+n]
}

// points returns room for a region of n vertices.
func (a *cellArena) points(n int) Polygon { return grow(&a.pts, n) }

// adjacency returns room for n neighbours and their shared edges.
func (a *cellArena) adjacency(n int) ([]int, []Segment) {
	return grow(&a.nbrs, n), grow(&a.segs, n)
}

// bisectorHalfPlane returns the half-plane of points at least as close to s
// as to t.
func bisectorHalfPlane(s, t Point) HalfPlane {
	return HalfPlane{Origin: s.Mid(t), Normal: t.Sub(s)}
}

// CellContaining returns the index of the cell whose site is nearest to p
// among cells with a non-nil Region, or -1 when no such cell exists (empty
// diagram or degenerate bounds). Ties go to the lowest index. Degenerate
// duplicate-site cells (Region == nil) are never returned, so callers may
// walk the result's Region unconditionally.
func (d *VoronoiDiagram) CellContaining(p Point) int {
	if d.index != nil {
		// The overall nearest site is also the nearest usable one whenever
		// its region survived; the nil-region case (a duplicate site) falls
		// through to the scan below.
		if best := d.index.Nearest(p); best >= 0 && d.Cells[best].Region != nil {
			return best
		}
	}
	best, bestDist := -1, 0.0
	for i := range d.Cells {
		if d.Cells[i].Region == nil {
			continue
		}
		dist := p.Dist2To(d.Cells[i].Site)
		if best < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}
