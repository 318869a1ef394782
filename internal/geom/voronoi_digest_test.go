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
// cell the site, index, region vertices, scan horizon, neighbors and shared
// edges. Two diagrams digest equal only when they are bitwise identical, so
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
		f(c.horizonD2)
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
// below was recorded before the clip and candidate buffers became reusable
// scratch, and must never move while the construction keeps its clips,
// their order and their arithmetic.
func TestVoronoiDigest(t *testing.T) {
	bounds := Rect(0, 0, 50, 50)
	churned := func() *VoronoiDiagram {
		prev := Voronoi(benchSites(1000), bounds)
		rng := rand.New(rand.NewSource(3))
		sites := make([]Point, len(prev.Cells))
		for i, c := range prev.Cells {
			sites[i] = c.Site
		}
		for n := 0; n < len(sites)*3/100; n++ {
			i := rng.Intn(len(sites))
			sites[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		diff := prev.DiffSites(sites)
		if diff.DirtyCount == 0 || diff.DirtyCount == len(sites) {
			t.Fatalf("churn dirtied %d of %d cells; want a partial rebuild", diff.DirtyCount, len(sites))
		}
		d := VoronoiIncremental(prev, sites, NewNNIndex(sites, bounds), diff)
		if got, full := voronoiDigest(d), voronoiDigest(Voronoi(sites, bounds)); got != full {
			t.Fatalf("incremental digest %s differs from full rebuild %s", got, full)
		}
		return d
	}
	cases := []struct {
		name  string
		build func() *VoronoiDiagram
		want  string
	}{
		{"uniform/k=32", func() *VoronoiDiagram { return Voronoi(benchSites(32), bounds) }, "db30bf1a51cc1576c61c6c7d2485a2bc055eae9db3e61ce02f0fcf0fd547a6c5"},
		{"uniform/k=512", func() *VoronoiDiagram { return Voronoi(benchSites(512), bounds) }, "8c801b6f18457a16d1859de69ac579c9af0ee1067151ac6ee739788923de8177"},
		{"uniform/k=2048", func() *VoronoiDiagram { return Voronoi(benchSites(2048), bounds) }, "5b856efb50ee2ad574e8f3624d1d51569b88c3b3c37c83d3e99ec01ac99759eb"},
		{"isoline/k=1000", func() *VoronoiDiagram { return Voronoi(isolineSites(1000), bounds) }, "ff2a2e03fea125b5acea76d986e257245b68450f27b52585482c82f6ef1a2da3"},
		{"incremental/churn=3%", churned, "d7977dc681bb1295628e3ba042eb69b3869c5c0016e82bd9848ce6347c38b310"},
	}
	for _, tc := range cases {
		if got := voronoiDigest(tc.build()); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
