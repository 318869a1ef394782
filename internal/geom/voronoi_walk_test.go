package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// TestNearestFromMatchesNearest scans each site set the way a raster does
// — row by row, each probe hinted with the previous answer — and checks
// every NearestFrom answer against the index. On isoline sites nearly
// every probe must be settled by the certificate itself, or the walk buys
// nothing.
func TestNearestFromMatchesNearest(t *testing.T) {
	var lattice []Point
	for x := 2.5; x < 50; x += 5 {
		for y := 2.5; y < 50; y += 5 {
			lattice = append(lattice, Point{X: x, Y: y})
		}
	}
	cases := []struct {
		name         string
		sites        []Point
		minCertified float64
	}{
		{"isoline/k=1000", isolineSites(1000), 0.99},
		{"uniform/k=512", benchSites(512), 0.99},
		{"lattice", lattice, 0.95},
		{"near-duplicates", walkSites(rand.New(rand.NewSource(9)), 200, 7), 0.75},
	}
	const side = 150
	for _, tc := range cases {
		d := Voronoi(tc.sites, Rect(0, 0, 50, 50))
		certified := 0
		hint := -1
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				p := Point{X: 50 * (float64(c) + 0.5) / side, Y: 50 * (float64(r) + 0.5) / side}
				got := d.NearestFrom(p, hint)
				if want := d.index.Nearest(p); got != want {
					t.Fatalf("%s: NearestFrom(%v, %d) = %d, Nearest = %d", tc.name, p, hint, got, want)
				}
				if d.walk.inBounds(p) && d.walk.step(d.index.sites, p, int32(got)) == int32(got) {
					certified++
				}
				hint = got
			}
		}
		if frac := float64(certified) / (side * side); frac < tc.minCertified {
			t.Errorf("%s: certificate settled %.3f of probes, want >= %.2f", tc.name, frac, tc.minCertified)
		}
	}
}

// TestVoronoiCertifiedPremises pins which cells may certify: none whose
// site has another site within walkMinSep or lies outside the bounds. Cell
// 18 of a near-duplicate layout that FuzzVoronoiNearest found was refused
// under the clip loop, whose extrapolated crossing had left it with edges
// owned by neighbour 39, which it did not list. Its dual cell lists 39,
// matches the naive oracle, and certifies.
func TestVoronoiCertifiedPremises(t *testing.T) {
	sites := []Point{{10, 10}, {10.005, 10}, {30, 30}, {40, 12}, {60, 25}}
	d := Voronoi(sites, Rect(0, 0, 50, 50))
	for i, want := range []bool{false, false, true, true, false} {
		if got := d.Cells[i].certified; got != want {
			t.Errorf("cell %d at %v: certified = %v, want %v", i, sites[i], got, want)
		}
	}
	layout := walkSites(rand.New(rand.NewSource(1)), 41, 87)
	c := Voronoi(layout, Rect(0, 0, 50, 50)).Cells[18]
	naive := VoronoiNaive(layout, Rect(0, 0, 50, 50)).Cells[18]
	got, want := slices.Clone(c.Neighbors), slices.Clone(naive.Neighbors)
	slices.Sort(got)
	slices.Sort(want)
	if !sameRegion(c.Region, naive.Region, 1e-7) || !slices.Equal(got, want) {
		t.Errorf("cell 18 of the fuzz-found layout: region %v, neighbours %v; naive %v, %v", c.Region, got, naive.Region, want)
	}
	if !c.certified || !slices.Contains(c.Neighbors, 39) {
		t.Errorf("cell 18 of the fuzz-found layout: certified %v, neighbours %v; want certified, listing 39", c.certified, c.Neighbors)
	}
	total := 0
	iso := Voronoi(isolineSites(1000), Rect(0, 0, 50, 50))
	for i := range iso.Cells {
		if iso.Cells[i].certified {
			total++
		}
	}
	if total < 980 {
		t.Errorf("%d of 1000 isoline cells certified, want >= 980", total)
	}
}
