package geom

import (
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
	// Region is the cell polygon (CCW). Nil when the cell degenerates,
	// which only happens for duplicate sites.
	Region Polygon
	// Neighbors lists the indices of sites whose cells share a boundary
	// edge with this cell, aligned with SharedEdges.
	Neighbors []int
	// SharedEdges[i] is the (clipped) bisector edge shared with
	// Neighbors[i].
	SharedEdges []Segment
	// certified marks a cell whose construction meets the premises of
	// NearestFrom's certificate (see certifiable). It is a function of
	// the cell's clip sequence, adjacency and bounds.
	certified bool
}

// VoronoiDiagram is a bounded Voronoi diagram over a convex boundary.
type VoronoiDiagram struct {
	// Bounds is the clipping polygon (typically the field rectangle).
	Bounds Polygon
	// Cells holds one cell per input site, in input order.
	Cells []VoronoiCell
	// index, when set, answers nearest-site queries for CellContaining and
	// adjacency without scanning all sites. Diagrams built by Voronoi carry
	// one; zero-value diagrams fall back to linear scans.
	index *NNIndex
	// walk is NearestFrom's neighbour and margin table, built with the
	// cells.
	walk voronoiWalk
}

// Voronoi computes the Voronoi diagram of sites bounded by the convex
// polygon bounds. Each cell clips bounds against bisector half-planes in
// increasing site distance, pruned by a grid index and a security-radius
// early exit (see buildCell), so typical cells cost O(1) clips instead of
// the O(k) of the naive construction.
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
	var sc voronoiScratch
	for i := range sites {
		d.buildCell(&sc, sites, i)
	}
	d.walk.link(d.Cells)
	return d
}

// voronoiScratch is the working memory of one diagram build. Each
// VoronoiWithIndex call makes its own and uses it on its own goroutine
// only; no diagram or index keeps a reference, so it is garbage once the
// build returns. Every kept cell copies its region and adjacency out of
// it, so only those three slices are allocated per cell.
type voronoiScratch struct {
	// clip holds the two buffers the clip loop alternates between: once a
	// cell has been clipped, its region lives in clip[0] and the next clip
	// writes into clip[1] before the two swap.
	clip [2]Polygon
	// pend is ringBatches' pending-candidate buffer.
	pend []nnCand
	// adj collects one cell's shared edges before they are copied out.
	adj []adjEdge

	// The cell being built; visit and clipBatch read and update these.
	sites   []Point
	i       int
	region  Polygon
	clipped bool // region lives in clip[0] rather than being the bounds
	r2      float64
	// nearD2 is the squared distance to the first candidate visited, the
	// nearest other site; within holds while every clip interpolated its
	// crossings inside their edges. Both feed certifiable.
	nearD2 float64
	within bool
	// coordMax is the largest coordinate magnitude of the bounds, the
	// scale of misses' margin.
	coordMax float64
}

// adjEdge is one shared edge of a cell and the neighbor across it.
type adjEdge struct {
	j int
	e Segment
}

// buildCell computes cell i of d — region and adjacency — with the
// diagram's index, which must be set. The region clips the bounds
// against bisectors in increasing distance from the site. The early exit
// is the security-radius argument: once the candidate distance d(s, t)
// reaches twice the distance R from s to its farthest current region
// vertex, every region point q satisfies
// d(q, t) >= d(s, t) - d(s, q) >= 2R - R >= d(q, s), so neither t nor any
// farther site can cut the region.
//
// Candidates arrive in ring batches (ringBatches); clipBatch skips the
// clips that provably leave the region unchanged, so the cell is bit for
// bit the one a loop clipping every candidate in order builds.
func (d *VoronoiDiagram) buildCell(sc *voronoiScratch, sites []Point, i int) {
	sc.begin(d.Bounds, sites, i)
	d.index.ringBatches(sites[i], &sc.pend, sc.clipBatch)
	d.keepCell(sc, sites, i)
}

// begin resets the scratch for cell i: the region is the bounds, nothing
// visited yet.
func (sc *voronoiScratch) begin(bounds Polygon, sites []Point, i int) {
	sc.sites, sc.i = sites, i
	sc.region, sc.clipped = bounds, false
	sc.r2 = farthestVertexDist2(bounds, sites[i])
	sc.nearD2, sc.within = math.Inf(1), true
	sc.coordMax = 0
	for _, v := range bounds {
		sc.coordMax = max(sc.coordMax, math.Abs(v.X), math.Abs(v.Y))
	}
}

// keepCell stores the cell the scratch holds as cell i of d. A clipped
// region is copied out of the scratch buffers at its exact size; an
// unclipped one is the bounds itself, shared.
func (d *VoronoiDiagram) keepCell(sc *voronoiScratch, sites []Point, i int) {
	region := sc.region
	if sc.clipped && region != nil {
		region = append(make(Polygon, 0, len(region)), region...)
	}
	d.Cells[i] = VoronoiCell{Site: sites[i], Index: i, Region: region}
	d.cellAdjacency(sc, sites, i)
	d.Cells[i].certified = sc.within && sc.nearD2 >= walkMinSep*walkMinSep && d.certifiable(sites, i)
}

// visit applies candidate j at squared distance d2 to the cell being
// built, returning false once the scan can stop.
func (sc *voronoiScratch) visit(j int, d2 float64) bool {
	if j == sc.i {
		return true
	}
	sc.nearD2 = min(sc.nearD2, d2)
	if len(sc.region) < 3 {
		// Degenerate bounds: the naive path nils such a region on its
		// first clip (dedupe drops sub-triangle output).
		sc.region = nil
		return false
	}
	if d2 >= 4*sc.r2 {
		return false
	}
	s, t := sc.sites[sc.i], sc.sites[j]
	if s.NearlyEqual(t) {
		// Duplicate sites split the plane ambiguously; assign the
		// region to the lower-indexed site.
		if j < sc.i {
			sc.region = nil
			return false
		}
		return true
	}
	out, within := sc.region.clipInto(sc.clip[1], bisectorHalfPlane(s, t))
	sc.within = sc.within && within
	if out == nil {
		sc.region = nil
		return false
	}
	sc.clip[0], sc.clip[1] = out, sc.clip[0]
	sc.region, sc.clipped = out, true
	sc.r2 = farthestVertexDist2(out, s)
	return true
}

// maxFilteredBatch bounds the batches clipBatch filters: a dropped
// candidate's proof allows up to ~1.8e5 clips between the batch start and
// the clip it skips (DESIGN.md "Cut-only clip loop"), and a batch holds
// no more clips than candidates.
const maxFilteredBatch = 1 << 16

// missMargin is misses' relative margin; see misses.
const missMargin = 1e-10

// clipBatch is buildCell's consumer of one ring batch. It drops every
// candidate whose bisector misses the region as it stands at the batch
// start (misses), sorts only the survivors and visits them in order. A
// dropped candidate's clip would have kept every vertex and returned the
// region unchanged, so skipping it changes nothing but where the scan
// stops: the batch ends it when any of its candidates lies at or past the
// security radius (pastRadius).
//
// Three cases keep the oracle's order, visiting every candidate: a batch
// over maxFilteredBatch; the candidates up to the region's first clip
// (nearD2 is the first candidate's distance, and a degenerate bounds
// polygon is the clip's to resolve), after which the rest of that batch
// is filtered as a batch of its own; and everything after a clip that
// extrapolated a crossing (within false), whose vertices the batch-start
// region no longer bounds.
func (sc *voronoiScratch) clipBatch(batch []nnCand) bool {
	if len(batch) > maxFilteredBatch {
		return visitSorted(batch, sc.visit)
	}
	if !sc.clipped {
		slices.SortFunc(batch, cmpCand)
		for len(batch) > 0 && !sc.clipped {
			if !sc.visit(int(batch[0].idx), batch[0].d2) {
				return false
			}
			batch = batch[1:]
		}
	}
	if !sc.within {
		return visitSorted(batch, sc.visit)
	}
	n := 0
	for k, c := range batch {
		if int(c.idx) != sc.i && !sc.misses(sc.sites[c.idx]) {
			batch[n], batch[k] = c, batch[n]
			n++
		}
	}
	slices.SortFunc(batch[:n], cmpCand)
	for k, c := range batch[:n] {
		if !sc.visit(int(c.idx), c.d2) {
			return false
		}
		if !sc.within {
			// c's clip extrapolated a crossing. Move the dropped
			// candidates after c next to the survivors after c and visit
			// them all in order, unfiltered.
			end := n
			for q := n; q < len(batch); q++ {
				if cmpCand(batch[q], c) > 0 {
					batch[end], batch[q] = batch[q], batch[end]
					end++
				}
			}
			return visitSorted(batch[k+1:end], sc.visit)
		}
	}
	return !sc.pastRadius(batch)
}

// misses reports whether the bisector of the cell's site and t misses the
// region with a margin: every vertex v has Side(v) <= -m for
// m = missMargin*(1 + coordMax + |O|∞)*|N|₁, where O and N are the
// bisector's origin and normal. While the clips that follow stay within,
// each later vertex is an in-edge interpolation of earlier ones, Side is
// affine along it, and m covers the rounding of those interpolations and
// of Side itself, so the skipped clip would see Side <= Eps at every
// vertex (DESIGN.md "Cut-only clip loop"). Near-duplicates of the site
// never miss: their visit resolves a duplicate rather than clipping.
func (sc *voronoiScratch) misses(t Point) bool {
	s := sc.sites[sc.i]
	if s.NearlyEqual(t) {
		return false
	}
	h := bisectorHalfPlane(s, t)
	m := missMargin * (1 + sc.coordMax + max(math.Abs(h.Origin.X), math.Abs(h.Origin.Y))) *
		(math.Abs(h.Normal.X) + math.Abs(h.Normal.Y))
	for _, v := range sc.region {
		if !(h.Side(v) <= -m) {
			return false
		}
	}
	return true
}

// pastRadius reports whether batch holds a candidate other than the
// cell's own site at or past the security radius (4*r2) of the region as
// clipBatch leaves it. Every later batch lies farther still, so no
// candidate left can cut the region and the scan may stop.
func (sc *voronoiScratch) pastRadius(batch []nnCand) bool {
	lim := 4 * sc.r2
	for _, c := range batch {
		if c.d2 >= lim && int(c.idx) != sc.i {
			return true
		}
	}
	return false
}

// farthestVertexDist2 returns the squared distance from s to the farthest
// vertex of the (convex) polygon — the security radius of the clip loop.
func farthestVertexDist2(pg Polygon, s Point) float64 {
	var m float64
	for _, v := range pg {
		if d := s.Dist2To(v); d > m {
			m = d
		}
	}
	return m
}

// bisectorHalfPlane returns the half-plane of points at least as close to s
// as to t.
func bisectorHalfPlane(s, t Point) HalfPlane {
	return HalfPlane{Origin: s.Mid(t), Normal: t.Sub(s)}
}

// cellAdjacency fills Neighbors/SharedEdges of one cell, walking its
// region's edges in order and allocating both lists once at their exact
// size (nil when the cell has no neighbor).
func (d *VoronoiDiagram) cellAdjacency(sc *voronoiScratch, sites []Point, i int) {
	ci := &d.Cells[i]
	region := ci.Region
	n := len(region)
	if n < 2 {
		return
	}
	adj := sc.adj[:0]
	for k := range region {
		e := Segment{A: region[k], B: region[(k+1)%n]}
		if j, ok := d.edgeNeighbor(sites, i, e); ok {
			adj = append(adj, adjEdge{j: j, e: e})
		}
	}
	sc.adj = adj
	if len(adj) == 0 {
		return
	}
	ci.Neighbors = make([]int, len(adj))
	ci.SharedEdges = make([]Segment, len(adj))
	for k, a := range adj {
		ci.Neighbors[k], ci.SharedEdges[k] = a.j, a.e
	}
}

// adjacencyTol is edgeNeighbor's equidistance band: an edge belongs to
// the nearest other site of its midpoint when the two sites' distances
// from that midpoint agree within it.
const adjacencyTol = 1e-6

// edgeNeighbor identifies which other site (if any) generates edge e of cell
// i: the edge midpoint must be (within tolerance) equidistant from both
// sites and the edge must lie on their bisector.
func (d *VoronoiDiagram) edgeNeighbor(sites []Point, i int, e Segment) (int, bool) {
	const tol = adjacencyTol
	m := e.Mid()
	di := m.DistTo(sites[i])
	best := -1
	if d.index != nil {
		best = d.index.NearestExcluding(m, i)
	} else {
		// Same ordering as NearestExcluding (squared distances, lowest
		// index on ties) so indexed and naive diagrams agree exactly.
		bestD2 := 0.0
		for j, s := range sites {
			if j == i {
				continue
			}
			if d2 := m.Dist2To(s); best < 0 || d2 < bestD2 {
				best, bestD2 = j, d2
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	// The shared edge midpoint is equidistant from both generating sites.
	dj := m.DistTo(sites[best])
	if dj >= di+tol || dj < di-tol {
		return 0, false
	}
	return best, true
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
