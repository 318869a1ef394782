package geom

import "math"

// This file locates probes in a diagram by a certified walk over its
// retained adjacency. Isoline sites lie along curves, so most buckets of
// the NNIndex grid are empty and a probe away from every curve walks many
// empty rings before its ring search may stop. The diagram already knows
// each cell's neighbours, and for a probe clearly inside the hint's cell
// the neighbours alone prove the answer.
//
// The certificate. With δ = walkMargin, cell h is the nearest site of p
// when p lies more than δ inside the bounds and every listed neighbour j
// of h satisfies
//
//	d²(p, s_j) − d²(p, s_h) > 2δ·|s_j − s_h|,
//
// i.e. p lies more than δ on h's side of every listed bisector.
//
// The margin argument. The triangulation's topology is exact (exact
// predicates), so the listed neighbours are exactly h's Delaunay
// neighbours less those whose dual edge misses the bounds, collapsed (its
// rounded circumcentres NearlyEqual) or survives inside the bounds by no
// more than Eps. A dual edge that misses the bounds cannot cut the cell
// inside them (the segment from s_h to any point of the bounds leaves the
// cell through an edge that meets the bounds). A collapsed or clipped-short
// neighbour's half-plane removes from the listed polygon only a sliver no
// wider than its dual edge, η ≤ √2·Eps plus the circumcentres' rounding,
// along a listed line; the margin δ ≫ η rejects every point of it. A cell is certified (certifies) when it meets the premises that make
// this exact:
//
//	(C1) every vertex of the region G lies within ε = δ/4 of the line of
//	     each of its two edges: its label's bisector, else a bounds edge.
//	     Circumcentres are rounded, not exact, and this is where their
//	     rounding is checked, against every line through every kept
//	     vertex;
//	(C2) s_h has no Delaunay neighbour and no NearlyEqual twin within
//	     walkMinSep, so every listed bisector lies ≥ walkMinSep/2 from it;
//	(C3) s_h lies more than δ inside the bounds.
//
// Let P_m be the points more than m inside the bounds and every listed
// bisector; s_h ∈ P_δ (C2, C3). A point q ∈ P_ε outside G would put the
// exit point of the segment s_h→q on an edge of G, within ε of its line
// (C1; the deviation is affine along the edge) yet more than ε inside it
// (P_ε is convex). So P_ε ⊆ G, and the disk of radius δ − ε around a
// certified p lies in G. Every point of G lies in the exact cell but for
// the slivers above, so p is more than δ − ε − η > 0 on h's side of every
// Voronoi edge of h: h is p's strict nearest site, in exact arithmetic and
// — the d² gap being ≥ 2·walkMinSep·(δ−ε−η) ≈ 1.5e-8 against a d²
// rounding of ~1e-12 on fields of a few hundred units — in the float
// Dist2To order the ring search uses: no tie, no tie-break.
//
// A failed certificate steps the walk to the listed neighbour closest to
// p, if strictly closer than h, at most walkSteps times; then
// NNIndex.NearestWarm answers exactly from the walk's cell. The answer
// never depends on the hint.

const (
	// walkMargin is the certificate's margin δ, in distance units; (C1)'s
	// ε is δ/4.
	walkMargin = 1e-6
	// walkMinSep is the separation (C2) requires of a cell's site from its
	// Delaunay neighbours and twins.
	walkMinSep = 1e-2
	// walkSteps bounds the neighbour steps before the ring-search
	// fallback.
	walkSteps = 3
)

// voronoiWalk is NearestFrom's table, built eagerly with the cells and
// read-only afterwards, so concurrent queries share it. It is a function
// of the cells and bounds alone.
type voronoiWalk struct {
	// bounds holds one half-plane per bounds edge, unit outward normal
	// (zero for a degenerate edge); nil for degenerate bounds, which
	// certify nothing.
	bounds []HalfPlane
	// CSR adjacency: cell h's listed neighbours are nbr[start[h]:start[h+1]].
	start []int32
	nbr   []int32
	// thr[h] is the d² margin every neighbour of cell h must clear:
	// 2δ·max_j |s_j − s_h|, which implies each neighbour's own 2δ·|s_j − s_h|
	// at one float per cell; +Inf when the cell is not certified.
	thr []float64
}

// boundsHalfPlanes returns edge k of a CCW convex polygon, from vertex k
// to vertex k+1, as half-plane k with unit outward normal (zero for an
// edge of length zero), or nil when the polygon has fewer than three
// vertices or no area.
func boundsHalfPlanes(bounds Polygon) []HalfPlane {
	if len(bounds) < 3 || !(bounds.SignedArea() > 0) {
		return nil
	}
	hps := make([]HalfPlane, len(bounds))
	for k, a := range bounds {
		b := bounds[(k+1)%len(bounds)]
		n := Vec{X: b.Y - a.Y, Y: a.X - b.X}
		if l := n.Norm(); l > 0 {
			hps[k] = HalfPlane{Origin: a, Normal: Vec{X: n.X / l, Y: n.Y / l}}
		}
	}
	return hps
}

// link fills the adjacency and margins from the built cells.
func (w *voronoiWalk) link(cells []VoronoiCell) {
	total := 0
	for i := range cells {
		total += len(cells[i].Neighbors)
	}
	w.start = make([]int32, len(cells)+1)
	w.nbr = make([]int32, 0, total)
	w.thr = make([]float64, len(cells))
	for i := range cells {
		c := &cells[i]
		far := 0.0
		for _, j := range c.Neighbors {
			w.nbr = append(w.nbr, int32(j))
			far = max(far, c.Site.DistTo(cells[j].Site))
		}
		w.start[i+1] = int32(len(w.nbr))
		w.thr[i] = math.Inf(1)
		if c.certified {
			w.thr[i] = 2 * walkMargin * far
		}
	}
}

// inBounds reports whether p lies more than walkMargin inside the bounds;
// false for non-finite p.
func (w *voronoiWalk) inBounds(p Point) bool {
	if w.bounds == nil {
		return false
	}
	for _, hp := range w.bounds {
		if hp.Normal != (Vec{}) && !(hp.Side(p) < -walkMargin) {
			return false
		}
	}
	return true
}

// step tests cell h's certificate at p: it returns h when the certificate
// holds, else the listed neighbour closest to p if it is strictly closer
// than h, else -1.
func (w *voronoiWalk) step(sites []Point, p Point, h int32) int32 {
	dh := p.Dist2To(sites[h])
	thr := w.thr[h]
	ok := !math.IsInf(thr, 1)
	next, best := int32(-1), dh
	for k := w.start[h]; k < w.start[h+1]; k++ {
		j := w.nbr[k]
		dj := p.Dist2To(sites[j])
		if !(dj-dh > thr) {
			ok = false
		}
		if dj < best {
			next, best = j, dj
		}
	}
	if ok {
		return h
	}
	return next
}

// NearestFrom returns the index of the site nearest to p, lowest index on
// exact ties — the answer of the diagram's NNIndex.Nearest, for every hint
// — or -1 for an empty diagram. hint, typically the answer for a nearby
// probe, starts the certified walk described above; any value, valid or
// not, is accepted. d must have been built by Voronoi or
// VoronoiWithIndex.
func (d *VoronoiDiagram) NearestFrom(p Point, hint int) int {
	if hint >= 0 && hint < len(d.Cells) && d.walk.inBounds(p) {
		h := int32(hint)
		for n := 0; ; n++ {
			next := d.walk.step(d.index.sites, p, h)
			if next == h {
				return int(h)
			}
			if next < 0 || n == walkSteps {
				break
			}
			h = next
		}
		hint = int(h)
	}
	return d.index.NearestWarm(p, hint)
}
