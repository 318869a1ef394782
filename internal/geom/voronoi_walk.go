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
// The margin argument. Clipping works to a tolerance, so the listed
// neighbours are not exactly the true ones: a neighbour whose edge dedupe
// dropped, or whose bisector cut the region by no more than the clip band,
// is missing. Such a neighbour owns only a sliver of what the listed
// bisectors bound, and every point of that sliver lies within η of the
// region's boundary; the margin δ ≫ η rejects it. A cell is certified
// (keepCell) when it meets the premises that make this exact:
//
//	(P1) every clip interpolated its crossings inside their edges, so the
//	     region G lies in each applied half-plane widened by the clip band
//	     η = Eps/|s_t − s_h| ≤ Eps/walkMinSep = 1e-7, the site having no
//	     other site within walkMinSep;
//	(P2) every edge of G has both endpoints within ε = δ/4 of the line it
//	     is attributed to: its label's bisector, else a bounds edge. This
//	     one is not tested: the edge labels and (P1) imply it (DESIGN.md
//	     "Certified-walk rasterization");
//	(P3) s_h lies more than δ inside the bounds.
//
// Let P_m be the points more than m inside the bounds and every listed
// bisector; s_h ∈ P_δ (listed sites are ≥ walkMinSep ≫ 2δ away). A point
// q ∈ P_ε outside G would put the exit point of the segment s_h→q on an
// edge of G, within ε of its line (the deviation is affine along the edge)
// yet more than ε inside it (P_ε is convex). So P_ε ⊆ G, and the disk of
// radius δ − ε around a certified p lies in G. Then p is more than
// δ − ε − η > 0 on h's side of every applied bisector (P1), and, interior
// to G, closer to s_h than the security radius R, while every unapplied
// site lies ≥ 2R from s_h. So h is p's strict nearest site, in exact
// arithmetic and — the d² gap being ≥ 2·walkMinSep·(δ−ε−η) ≈ 1.3e-8
// against a d² rounding of ~1e-12 on fields of a few hundred units — in
// the float Dist2To order the ring search uses: no tie, no tie-break.
//
// A failed certificate steps the walk to the listed neighbour closest to
// p, if strictly closer than h, at most walkSteps times; then
// NNIndex.NearestWarm answers exactly from the walk's cell. The answer
// never depends on the hint.

const (
	// walkMargin is the certificate's margin δ, in distance units; (P2)'s
	// ε is δ/4.
	walkMargin = 1e-6
	// walkMinSep is the separation (P1) requires of a cell's site: below
	// it the clip band Eps/|s_t − s_h| could exceed δ − ε.
	walkMinSep = 1e-2
	// walkSteps bounds the neighbour steps before the ring-search
	// fallback.
	walkSteps = 3
)

// voronoiWalk is NearestFrom's table, built eagerly with the cells and
// read-only afterwards, so concurrent queries share it. It is a function
// of the cells and bounds alone.
type voronoiWalk struct {
	// bounds holds one half-plane per bounds edge, unit outward normal;
	// nil for degenerate bounds, which certify nothing.
	bounds []HalfPlane
	// CSR adjacency: cell h's listed neighbours are nbr[start[h]:start[h+1]].
	start []int32
	nbr   []int32
	// thr[h] is the d² margin every neighbour of cell h must clear:
	// 2δ·max_j |s_j − s_h|, which implies each neighbour's own 2δ·|s_j − s_h|
	// at one float per cell; +Inf when the cell is not certified.
	thr []float64
}

// boundsHalfPlanes returns the edges of a CCW convex polygon as
// half-planes with unit outward normals, or nil when it has fewer than
// three vertices.
func boundsHalfPlanes(bounds Polygon) []HalfPlane {
	if len(bounds) < 3 {
		return nil
	}
	var hps []HalfPlane
	for k, a := range bounds {
		b := bounds[(k+1)%len(bounds)]
		n := Vec{X: b.Y - a.Y, Y: a.X - b.X}
		if l := n.Norm(); l > 0 {
			hps = append(hps, HalfPlane{Origin: a, Normal: Vec{X: n.X / l, Y: n.Y / l}})
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
		if !(hp.Side(p) < -walkMargin) {
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
