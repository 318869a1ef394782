package geom

import "math"

// NNIndex is a uniform-grid nearest-site index over a fixed point set: the
// bounding box is cut into square buckets sized for ~1 site per bucket (the
// same spatial-hash shape as the network neighbor graph), and queries walk
// buckets outward from the probe in Chebyshev rings. All queries are exact:
// they return the same argmin — with the same lowest-index tie-break — as a
// linear scan over the sites, so callers can swap a brute-force scan for an
// index lookup without changing a single output bit.
//
// The geometric invariant behind every pruning rule below: a probe p lies
// inside its own (ring-0) bucket, so any site stored in a bucket at
// Chebyshev ring r is at Euclidean distance >= (r-1)*cell from p.
type NNIndex struct {
	sites  []Point
	x0, y0 float64
	cell   float64
	nx, ny int
	// CSR bucket layout: ids[start[b]:start[b+1]] are the indices of the
	// sites in bucket b = by*nx + bx, each list in ascending site order.
	start []int32
	ids   []int32
}

// NewNNIndex builds the index for sites inside the given bounds polygon
// (typically the field rectangle). Sites outside bounds are still indexed:
// the grid covers the union of the bounds box and the site bounding box.
func NewNNIndex(sites []Point, bounds Polygon) *NNIndex {
	ix := &NNIndex{sites: sites, cell: 1, nx: 1, ny: 1}
	if len(sites) == 0 {
		ix.start = make([]int32, 2)
		return ix
	}
	x0, y0, x1, y1 := bounds.BoundingBox()
	if len(bounds) == 0 {
		x0, y0 = sites[0].X, sites[0].Y
		x1, y1 = x0, y0
	}
	for _, s := range sites {
		x0, x1 = math.Min(x0, s.X), math.Max(x1, s.X)
		y0, y1 = math.Min(y0, s.Y), math.Max(y1, s.Y)
	}
	w, h := x1-x0, y1-y0
	// The cell never drops below the longer side over the site count: a
	// box far more elongated than that (one outlying site) would
	// otherwise get ~1 bucket per site on its area but a one-bucket-thick
	// strip of millions along its length, and every query would walk it.
	// This also covers a degenerate box (collinear or coincident sites),
	// which becomes a 1-D grid along the longer axis.
	cell := math.Max(math.Sqrt(w*h/float64(len(sites))), math.Max(w, h)/float64(len(sites)))
	if !(cell > 0) {
		cell = 1
	}
	ix.x0, ix.y0, ix.cell = x0, y0, cell
	ix.nx = gridDim(w, cell)
	ix.ny = gridDim(h, cell)

	// Counting sort into the CSR arrays; iterating sites in ascending order
	// keeps every bucket list ascending.
	nb := ix.nx * ix.ny
	ix.start = make([]int32, nb+1)
	keys := make([]int32, len(sites))
	for i, s := range sites {
		b := int32(ix.clampBucket(s))
		keys[i] = b
		ix.start[b+1]++
	}
	for b := 0; b < nb; b++ {
		ix.start[b+1] += ix.start[b]
	}
	ix.ids = make([]int32, len(sites))
	fill := make([]int32, nb)
	for i := range sites {
		b := keys[i]
		ix.ids[ix.start[b]+fill[b]] = int32(i)
		fill[b]++
	}
	return ix
}

// gridDim returns the bucket count covering an extent of the given size.
func gridDim(size, cell float64) int {
	n := int(math.Ceil(size / cell))
	if n < 1 {
		return 1
	}
	return n
}

// Len returns the number of indexed sites.
func (ix *NNIndex) Len() int { return len(ix.sites) }

// Site returns the i-th indexed site.
func (ix *NNIndex) Site(i int) Point { return ix.sites[i] }

// bucketCoords returns the (possibly out-of-range) bucket coordinates of p;
// queries outside the grid keep their true coordinates so ring lower bounds
// stay valid.
func (ix *NNIndex) bucketCoords(p Point) (bx, by int) {
	return bucketCoord((p.X - ix.x0) / ix.cell), bucketCoord((p.Y - ix.y0) / ix.cell)
}

// maxBucketCoord bounds bucket coordinates far beyond any grid (whose
// dimensions are int32) yet far below integer overflow in the ring
// arithmetic.
const maxBucketCoord = 1 << 40

// bucketCoord floors a float bucket coordinate and clamps it to
// ±maxBucketCoord before the int conversion; NaN maps to the low bound.
// Clamping a far probe moves it toward the grid along that axis, so every
// site stays at least as far from the probe as from the clamped bucket and
// the ring lower bounds remain valid.
func bucketCoord(f float64) int {
	f = math.Floor(f)
	if !(f > -maxBucketCoord) {
		return -maxBucketCoord
	}
	return int(math.Min(f, maxBucketCoord))
}

// clampBucket returns the storage bucket of a site, clamped into the grid.
// A site on the far box edge lands exactly on the boundary of the clamped
// bucket, so the ring distance invariant is preserved.
func (ix *NNIndex) clampBucket(p Point) int {
	bx, by := ix.bucketCoords(p)
	bx = min(max(bx, 0), ix.nx-1)
	by = min(max(by, 0), ix.ny-1)
	return by*ix.nx + bx
}

// ringSpan returns the first and last rings around (qx, qy) that
// intersect the grid; scanning rings minR..maxR visits every bucket, and
// the rings before minR are empty, so a probe far outside the grid skips
// them instead of walking each one.
func (ix *NNIndex) ringSpan(qx, qy int) (minR, maxR int) {
	minR = max(-qx, qx-(ix.nx-1), -qy, qy-(ix.ny-1), 0)
	maxR = max(qx, ix.nx-1-qx, qy, ix.ny-1-qy)
	return minR, maxR
}

// rowSpan returns the site ids of buckets x0..x1 of grid row y, clipped to
// the grid; a row's buckets are consecutive in the CSR layout, so the span
// is one slice of ids.
func (ix *NNIndex) rowSpan(x0, x1, y int) []int32 {
	x0, x1 = max(x0, 0), min(x1, ix.nx-1)
	if y < 0 || y >= ix.ny || x0 > x1 {
		return nil
	}
	b := y * ix.nx
	return ix.ids[ix.start[b+x0]:ix.start[b+x1+1]]
}

// scanRing calls f with the site ids of the Chebyshev ring of radius r
// around bucket (qx, qy), one row span at a time: the ring's bottom and top
// rows whole, then its two side columns bucket by bucket.
func (ix *NNIndex) scanRing(qx, qy, r int, f func(ids []int32)) {
	f(ix.rowSpan(qx-r, qx+r, qy-r))
	if r == 0 {
		return
	}
	f(ix.rowSpan(qx-r, qx+r, qy+r))
	for y := max(qy-r+1, 0); y <= min(qy+r-1, ix.ny-1); y++ {
		f(ix.rowSpan(qx-r, qx-r, y))
		f(ix.rowSpan(qx+r, qx+r, y))
	}
}

// Nearest returns the index of the site nearest to p (lowest index on exact
// ties), or -1 for an empty index.
func (ix *NNIndex) Nearest(p Point) int { return int(ix.nearestFrom(p, -1)) }

// NearestWarm is Nearest warm-started from a hint — typically the answer of
// a nearby query. The hint seeds the search radius, so the rings stop once
// they pass the hint's distance; with sites along curves that can still be
// many empty rings, which is why a raster scan first tries
// VoronoiDiagram.NearestFrom's certified walk. The returned index is
// identical to Nearest for every hint value, valid or not.
func (ix *NNIndex) NearestWarm(p Point, hint int) int {
	h := int32(-1)
	if hint >= 0 && hint < len(ix.sites) {
		h = int32(hint)
	}
	return int(ix.nearestFrom(p, h))
}

// nearestFrom is the shared ring search: best (when >= 0) seeds the upper
// bound. Rings expand until their distance lower bound strictly exceeds
// the best distance, which keeps exact-tie candidates reachable and makes
// the result hint-independent.
func (ix *NNIndex) nearestFrom(p Point, best int32) int32 {
	bestD2 := math.Inf(1)
	if best >= 0 {
		bestD2 = p.Dist2To(ix.sites[best])
	}
	qx, qy := ix.bucketCoords(p)
	minR, maxR := ix.ringSpan(qx, qy)
	for r := minR; r <= maxR; r++ {
		if best >= 0 {
			if lb := float64(r-1) * ix.cell; lb > 0 && lb*lb > bestD2 {
				break
			}
		}
		ix.scanRing(qx, qy, r, func(ids []int32) {
			for _, si := range ids {
				d2 := p.Dist2To(ix.sites[si])
				if best < 0 || d2 < bestD2 || (d2 == bestD2 && si < best) {
					best, bestD2 = si, d2
				}
			}
		})
	}
	return best
}
