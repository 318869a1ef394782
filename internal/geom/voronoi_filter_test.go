package geom

import (
	"math"
	"math/rand"
	"testing"
)

// voronoiUnfiltered builds the diagram Voronoi builds with the same index,
// ring batches and clip loop, but sorts every batch whole and visits every
// candidate (the oracle consumer, visitByDistance). The filtered
// construction must equal it bit for bit.
func voronoiUnfiltered(sites []Point, bounds Polygon) *VoronoiDiagram {
	bounds = bounds.EnsureCCW()
	d := &VoronoiDiagram{
		Bounds: bounds,
		Cells:  make([]VoronoiCell, len(sites)),
		index:  NewNNIndex(sites, bounds),
		walk:   voronoiWalk{bounds: boundsHalfPlanes(bounds)},
	}
	var sc voronoiScratch
	for i := range sites {
		sc.begin(d.Bounds, sites, i)
		d.index.visitByDistance(sites[i], &sc.pend, sc.visit)
		d.keepCell(&sc, sites, i)
	}
	d.walk.link(d.Cells)
	return d
}

// checkFilteredMatches fails t unless Voronoi and voronoiUnfiltered build
// bitwise-identical diagrams over sites, certificates included.
func checkFilteredMatches(t *testing.T, name string, sites []Point, bounds Polygon) {
	t.Helper()
	got, want := Voronoi(sites, bounds), voronoiUnfiltered(sites, bounds)
	if g, w := voronoiDigest(got), voronoiDigest(want); g != w {
		for i := range got.Cells {
			a, b := got.Cells[i], want.Cells[i]
			if voronoiDigest(&VoronoiDiagram{Cells: []VoronoiCell{a}}) != voronoiDigest(&VoronoiDiagram{Cells: []VoronoiCell{b}}) {
				t.Fatalf("%s: cell %d differs: filtered region %v, unfiltered region %v",
					name, i, a.Region, b.Region)
			}
		}
		t.Fatalf("%s: digest %s, unfiltered %s", name, g, w)
	}
	for i := range got.Cells {
		if got.Cells[i].certified != want.Cells[i].certified {
			t.Fatalf("%s: cell %d certified %v, unfiltered %v", name, i, got.Cells[i].certified, want.Cells[i].certified)
		}
	}
}

// scaleSites returns sites and the 50x50 bounds scaled by f.
func scaleSites(sites []Point, f float64) ([]Point, Polygon) {
	out := make([]Point, len(sites))
	for i, s := range sites {
		out[i] = Point{X: s.X * f, Y: s.Y * f}
	}
	return out, Rect(0, 0, 50*f, 50*f)
}

// TestVoronoiFilteredMatchesUnfiltered compares the two constructions on
// 200 diagrams: every walkSites layout (curves, collinear runs, exact and
// near duplicates, a far site) over uniform and isoline sites, at
// coordinate scales from 1e-3 to 1e6, plus the digest cases' site sets.
func TestVoronoiFilteredMatchesUnfiltered(t *testing.T) {
	scales := []float64{1e-3, 0.1, 1, 37, 1e4, 1e6}
	for k := 0; k < 200; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		sites := walkSites(rng, 1+rng.Intn(120), uint8(k%16))
		f := scales[k%len(scales)]
		s, bounds := scaleSites(sites, f)
		checkFilteredMatches(t, "walkSites", s, bounds)
	}
	bounds := Rect(0, 0, 50, 50)
	checkFilteredMatches(t, "uniform/k=2048", benchSites(2048), bounds)
	checkFilteredMatches(t, "isoline/k=1000", isolineSites(1000), bounds)
}

// TestVoronoiFilterFallback builds a cell whose second batch holds a clip
// that extrapolates a crossing: the bisector of s and u runs within Eps
// of the region's top edge, nearly parallel to it, so its crossing lands
// 4.5 edge lengths past the edge, far outside the region the batch was
// filtered against. The next candidate, w, misses that region by a wide
// margin but cuts the spike, so only a loop that stops filtering once a
// clip leaves its edges can keep w's clip.
func TestVoronoiFilterFallback(t *testing.T) {
	s := Point{X: 10, Y: 25}
	first := Point{X: 40, Y: 25} // alone in the first batch: region [0,25]x[0,50]
	u := Point{X: 10 - 8e-12, Y: 75 - 4.08e-11}
	w := Point{X: 70, Y: 25}
	sites := []Point{s, first, u, w}
	bounds := Rect(0, 0, 50, 50)

	// The premises: u's clip of the first-batch region extrapolates, and
	// w's bisector misses that region but not the clipped one.
	region := Rect(0, 0, 25, 50)
	spiked, within := region.clipInto(nil, bisectorHalfPlane(s, u))
	if within {
		t.Fatalf("u's clip of %v stayed within its edges: %v", region, spiked)
	}
	hw := bisectorHalfPlane(s, w)
	for _, v := range region {
		if hw.Side(v) > -1 {
			t.Fatalf("w's bisector does not miss %v (Side %v at %v)", region, hw.Side(v), v)
		}
	}
	if cut := spiked.ClipHalfPlane(hw); len(cut) == len(spiked) && cut.Area() == spiked.Area() {
		t.Fatalf("w's bisector does not cut the extrapolated region %v", spiked)
	}
	checkFilteredMatches(t, "extrapolating clip", sites, bounds)
}

// cocircularSites places n sites on one circle, where every bisector of
// two of them passes exactly through the circle's centre: after the first
// clips a region vertex sits there, and a later candidate's bisector runs
// through it with Side rounding to zero.
func cocircularSites(rng *rand.Rand, n int) []Point {
	sites := make([]Point, n)
	for i := range sites {
		th := rng.Float64() * 2 * math.Pi
		sites[i] = Point{X: 25 + 20*math.Cos(th), Y: 25 + 20*math.Sin(th)}
	}
	return sites
}

// TestVoronoiFilterMarginLargeScale compares the constructions on 400
// cocircular site sets scaled by 1e4 to 1e7. A candidate whose bisector
// touches a region vertex at Side <= 0 still cuts the region once a later
// clip's rounding pushes a new vertex past Eps, which at these scales is
// far below the rounding of Side itself; only a margin that scales with
// the coordinates keeps such candidates.
func TestVoronoiFilterMarginLargeScale(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sites := cocircularSites(rng, 16+rng.Intn(32))
		s, bounds := scaleSites(sites, math.Pow(10, 4+3*rng.Float64()))
		checkFilteredMatches(t, "cocircular", s, bounds)
	}
}
