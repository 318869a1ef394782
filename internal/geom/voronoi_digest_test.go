package geom

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// voronoiDigest hashes every float bit and integer a diagram exposes: per
// cell the site, index, region vertices, neighbors and shared edges. Two diagrams digest equal only when they are bitwise identical, so
// a reordered clip or a changed float operation shows as a new digest even
// where the 1e-6 naive-oracle comparison would still pass.
func voronoiDigest(d *VoronoiDiagram) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	pt := func(p Point) { f(p.X); f(p.Y) }
	u(uint64(len(d.Cells)))
	for _, c := range d.Cells {
		pt(c.Site)
		u(uint64(c.Index))
		u(uint64(len(c.Region)))
		for _, v := range c.Region {
			pt(v)
		}
		u(uint64(len(c.Neighbors)))
		for _, j := range c.Neighbors {
			u(uint64(j))
		}
		u(uint64(len(c.SharedEdges)))
		for _, e := range c.SharedEdges {
			pt(e.A)
			pt(e.B)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// isolineSites places k sites along a few closed curves with slight jitter,
// the shape of a contour level's isoposition reports: dense along each
// isoline, empty between them, with many near-collinear neighbors.
func isolineSites(k int) []Point {
	rng := rand.New(rand.NewSource(7))
	type curve struct{ cx, cy, r, wobble, freq float64 }
	curves := []curve{
		{25, 25, 18, 1.5, 3},
		{15, 30, 7, 0.8, 5},
		{34, 16, 9, 1.2, 2},
		{38, 38, 4, 0.3, 4},
	}
	sites := make([]Point, k)
	for i := range sites {
		c := curves[i%len(curves)]
		th := rng.Float64() * 2 * math.Pi
		r := c.r + c.wobble*math.Sin(c.freq*th) + rng.NormFloat64()*0.05
		sites[i] = Point{X: c.cx + r*math.Cos(th), Y: c.cy + r*math.Sin(th)}
	}
	return sites
}

// TestVoronoiDigest pins the pruned construction bit for bit: every digest
// below covers the cells' regions and adjacency, and must never move while
// the construction keeps its clips, their order and their arithmetic.
func TestVoronoiDigest(t *testing.T) {
	bounds := Rect(0, 0, 50, 50)
	// churned is benchSites(1000) with 3% of the sites moved to fresh
	// uniform positions: one round of a slowly changing report set.
	churned := func() *VoronoiDiagram {
		sites := benchSites(1000)
		rng := rand.New(rand.NewSource(3))
		for n := 0; n < len(sites)*3/100; n++ {
			i := rng.Intn(len(sites))
			sites[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		return Voronoi(sites, bounds)
	}
	cases := []struct {
		name  string
		build func() *VoronoiDiagram
		want  string
	}{
		{"uniform/k=32", func() *VoronoiDiagram { return Voronoi(benchSites(32), bounds) }, "0d118608ae28dc7793106e3af154237fd428c822bea07784f18d735c122564fa"},
		{"uniform/k=512", func() *VoronoiDiagram { return Voronoi(benchSites(512), bounds) }, "88ea70494c3a0628c9bf0118772c657bd8c9e06ead857ac96d0a60d948e365a1"},
		{"uniform/k=2048", func() *VoronoiDiagram { return Voronoi(benchSites(2048), bounds) }, "51d13dd0c5c5b8d5ab4135e922147de0809d471c948b2fc9e57a7c080ac7837f"},
		{"isoline/k=1000", func() *VoronoiDiagram { return Voronoi(isolineSites(1000), bounds) }, "02ad67630a138c9c3167073c23eff1c173ce5948eec4b313b8b7b6dd6e3fc371"},
		{"uniform/churn=3%", churned, "83abdeb469ca87565f717ce119d17dd2aad9cbefb39d544116c12cca2385a5d1"},
	}
	for _, tc := range cases {
		if got := voronoiDigest(tc.build()); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
