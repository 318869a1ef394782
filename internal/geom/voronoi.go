package geom

import "math"

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
	// horizonD2 is the squared site distance at which the pruned
	// construction stopped scanning candidates for this cell (+Inf when
	// the scan exhausted every site, as the naive oracle's cells always
	// do).
	// Every site the clip loop applied lies strictly below it, so a site
	// set that only changes beyond the horizon provably replays the
	// identical clip sequence — the fact DiffSites uses to prove cells
	// reusable across rounds.
	horizonD2 float64
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
}

// Voronoi computes the Voronoi diagram of sites bounded by the convex
// polygon bounds. Each cell clips bounds against bisector half-planes in
// increasing site distance, pruned by a grid index and a security-radius
// early exit (see voronoiCell), so typical cells cost O(1) clips instead of
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
	}
	for i, s := range sites {
		region, horizon := voronoiCell(index, sites, i, bounds)
		d.Cells[i] = VoronoiCell{Site: s, Index: i, Region: region, horizonD2: horizon}
	}
	d.computeAdjacency(sites)
	return d
}

// voronoiCell computes the cell of site i by clipping bounds against
// bisectors in increasing distance from the site. The early exit is the
// security-radius argument: once the candidate distance d(s, t) reaches
// twice the distance R from s to its farthest current region vertex, every
// region point q satisfies d(q, t) >= d(s, t) - d(s, q) >= 2R - R >= d(q, s),
// so neither t nor any farther site can cut the region.
//
// The second return is the cell's scan horizon: the squared distance of
// the candidate that stopped the scan, or +Inf when every site was
// visited. Sites at or beyond the horizon were never applied, so the
// region (and its exact float vertices) depends only on the sites
// strictly inside it.
func voronoiCell(index *NNIndex, sites []Point, i int, bounds Polygon) (Polygon, float64) {
	s := sites[i]
	region := bounds
	r2 := farthestVertexDist2(region, s)
	horizon := math.Inf(1)
	index.VisitByDistance(s, func(j int, d2 float64) bool {
		if j == i {
			return true
		}
		if len(region) < 3 {
			// Degenerate bounds: the naive path nils such a region on its
			// first clip (dedupe drops sub-triangle output).
			region = nil
			horizon = d2
			return false
		}
		if d2 >= 4*r2 {
			horizon = d2
			return false
		}
		t := sites[j]
		if s.NearlyEqual(t) {
			// Duplicate sites split the plane ambiguously; assign the
			// region to the lower-indexed site.
			if j < i {
				region = nil
				horizon = d2
				return false
			}
			return true
		}
		region = region.ClipHalfPlane(bisectorHalfPlane(s, t))
		if region == nil {
			horizon = d2
			return false
		}
		r2 = farthestVertexDist2(region, s)
		return true
	})
	return region, horizon
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

// computeAdjacency finds, for every cell, the neighboring cells with which
// it shares a bisector edge, recording the shared edge segments.
func (d *VoronoiDiagram) computeAdjacency(sites []Point) {
	for i := range d.Cells {
		d.cellAdjacency(sites, i)
	}
}

// cellAdjacency fills Neighbors/SharedEdges of one cell; the cell's lists
// must be empty on entry (freshly built cells are).
func (d *VoronoiDiagram) cellAdjacency(sites []Point, i int) {
	ci := &d.Cells[i]
	if ci.Region == nil {
		return
	}
	for _, e := range ci.Region.Edges() {
		j, ok := d.edgeNeighbor(sites, i, e)
		if !ok {
			continue
		}
		ci.Neighbors = append(ci.Neighbors, j)
		ci.SharedEdges = append(ci.SharedEdges, e)
	}
}

// adjacencyTol is edgeNeighbor's equidistance band. DiffSites widens its
// dirtiness horizon by the same amount so a site change that could flip
// an adjacency verdict without clipping the region still dirties the cell.
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
