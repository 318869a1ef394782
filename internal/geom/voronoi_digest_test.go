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
// cell the site, index, region vertices, neighbors and shared edges. Two
// diagrams digest equal only when they are bitwise identical, so a changed
// insertion order, vertex start or float operation shows as a new digest
// even where the naive-oracle comparison would still pass.
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

// churnedSites is benchSites(1000) with 3% of the sites moved to fresh
// uniform positions: one round of a slowly changing report set.
func churnedSites() []Point {
	sites := benchSites(1000)
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < len(sites)*3/100; n++ {
		i := rng.Intn(len(sites))
		sites[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
	}
	return sites
}

// TestVoronoiDigest pins the construction bit for bit: every digest below
// covers the cells' regions and adjacency, and must never move while the
// construction keeps its insertion order (which also decides the vertex
// each region starts at), its circumcentres and its bounds clips. The digests were re-recorded once
// when the half-plane clip loop gave way to the Delaunay dual.
func TestVoronoiDigest(t *testing.T) {
	bounds := Rect(0, 0, 50, 50)
	churned := func() *VoronoiDiagram { return Voronoi(churnedSites(), bounds) }
	cases := []struct {
		name  string
		build func() *VoronoiDiagram
		want  string
	}{
		{"uniform/k=32", func() *VoronoiDiagram { return Voronoi(benchSites(32), bounds) }, "61bc5f3e481ee23a2470c2b1b4b2e242a2c83560b97427a016fab0aef1f67e7f"},
		{"uniform/k=512", func() *VoronoiDiagram { return Voronoi(benchSites(512), bounds) }, "49029e6d9283f657e6b3778dbe5ae5629830c942f35668af5a206131c4104c92"},
		{"uniform/k=2048", func() *VoronoiDiagram { return Voronoi(benchSites(2048), bounds) }, "f8a668fc577f2550274dbfe80ff701802f3743a2dd30c1449624352dc58a89eb"},
		{"isoline/k=1000", func() *VoronoiDiagram { return Voronoi(isolineSites(1000), bounds) }, "49a04bac277edd34f8377e236e3c57b9b113e9422f024974b7afb79d1337f9e4"},
		{"uniform/churn=3%", churned, "cf6648bae60ab35e9573d2f070906beffe453de75514a8772088aa6b14cd8a21"},
	}
	for _, tc := range cases {
		if got := voronoiDigest(tc.build()); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
