package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestVoronoiSingleSite(t *testing.T) {
	bounds := Rect(0, 0, 10, 10)
	d := Voronoi([]Point{{5, 5}}, bounds)
	if len(d.Cells) != 1 {
		t.Fatalf("cells = %d", len(d.Cells))
	}
	if got := d.Cells[0].Region.Area(); !almostEqual(got, 100, 1e-9) {
		t.Errorf("single-site cell area = %v, want 100", got)
	}
	if len(d.Cells[0].Neighbors) != 0 {
		t.Errorf("single site should have no neighbors, got %v", d.Cells[0].Neighbors)
	}
}

func TestVoronoiTwoSites(t *testing.T) {
	bounds := Rect(0, 0, 10, 10)
	d := Voronoi([]Point{{2, 5}, {8, 5}}, bounds)
	a0 := d.Cells[0].Region.Area()
	a1 := d.Cells[1].Region.Area()
	if !almostEqual(a0, 50, 1e-6) || !almostEqual(a1, 50, 1e-6) {
		t.Errorf("areas = %v, %v, want 50 each", a0, a1)
	}
	// Each cell contains its own site.
	for i, c := range d.Cells {
		if !c.Region.Contains(c.Site) {
			t.Errorf("cell %d does not contain its site", i)
		}
	}
	// They are mutual neighbors.
	if len(d.Cells[0].Neighbors) != 1 || d.Cells[0].Neighbors[0] != 1 {
		t.Errorf("cell0 neighbors = %v, want [1]", d.Cells[0].Neighbors)
	}
	if len(d.Cells[1].Neighbors) != 1 || d.Cells[1].Neighbors[0] != 0 {
		t.Errorf("cell1 neighbors = %v, want [0]", d.Cells[1].Neighbors)
	}
	// Shared edge is the x=5 bisector.
	e := d.Cells[0].SharedEdges[0]
	if !almostEqual(e.A.X, 5, 1e-6) || !almostEqual(e.B.X, 5, 1e-6) {
		t.Errorf("shared edge not on bisector: %v", e)
	}
}

func TestVoronoiGridSites(t *testing.T) {
	bounds := Rect(0, 0, 4, 4)
	var sites []Point
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			sites = append(sites, Point{X: 0.5 + float64(i), Y: 0.5 + float64(j)})
		}
	}
	d := Voronoi(sites, bounds)
	for i, c := range d.Cells {
		if got := c.Region.Area(); !almostEqual(got, 1, 1e-6) {
			t.Errorf("grid cell %d area = %v, want 1", i, got)
		}
	}
}

func TestVoronoiAreasPartitionBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bounds := Rect(0, 0, 50, 50)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		sites := make([]Point, n)
		for i := range sites {
			sites[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		d := Voronoi(sites, bounds)
		var total float64
		for _, c := range d.Cells {
			total += c.Region.Area()
		}
		if !almostEqual(total, 2500, 1e-4) {
			t.Fatalf("trial %d: cell areas sum to %v, want 2500", trial, total)
		}
	}
}

func TestVoronoiCellsContainOwnSites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := Rect(0, 0, 20, 20)
	sites := make([]Point, 50)
	for i := range sites {
		sites[i] = Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
	}
	d := Voronoi(sites, bounds)
	for i, c := range d.Cells {
		if c.Region == nil {
			t.Fatalf("cell %d nil region", i)
		}
		if !c.Region.Contains(c.Site) {
			t.Errorf("cell %d does not contain site %v", i, c.Site)
		}
	}
}

func TestVoronoiNearestSiteProperty(t *testing.T) {
	// Any point strictly inside a cell must be nearest to that cell's site.
	rng := rand.New(rand.NewSource(17))
	bounds := Rect(0, 0, 30, 30)
	sites := make([]Point, 25)
	for i := range sites {
		sites[i] = Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}
	}
	d := Voronoi(sites, bounds)
	for trial := 0; trial < 500; trial++ {
		p := Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}
		owner := -1
		for i, c := range d.Cells {
			if c.Region.Contains(p) {
				// A boundary point can belong to several cells; take the
				// first and check it's within tolerance of the nearest.
				owner = i
				break
			}
		}
		if owner < 0 {
			t.Fatalf("point %v in no cell", p)
		}
		nearest := d.CellContaining(p)
		dOwner := p.DistTo(d.Cells[owner].Site)
		dNearest := p.DistTo(d.Cells[nearest].Site)
		if dOwner > dNearest+1e-6 {
			t.Errorf("point %v in cell %d (dist %v) but nearest site is %d (dist %v)",
				p, owner, dOwner, nearest, dNearest)
		}
	}
}

func TestVoronoiDuplicateSites(t *testing.T) {
	bounds := Rect(0, 0, 10, 10)
	d := Voronoi([]Point{{3, 3}, {3, 3}, {7, 7}}, bounds)
	if d.Cells[0].Region == nil {
		t.Error("first duplicate should keep its region")
	}
	if d.Cells[1].Region != nil {
		t.Error("second duplicate should have nil region")
	}
	if d.Cells[2].Region == nil {
		t.Error("distinct site should keep its region")
	}
	a := d.Cells[0].Region.Area() + d.Cells[2].Region.Area()
	if !almostEqual(a, 100, 1e-6) {
		t.Errorf("areas sum = %v, want 100", a)
	}
}

func TestVoronoiAdjacencySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bounds := Rect(0, 0, 40, 40)
	sites := make([]Point, 30)
	for i := range sites {
		sites[i] = Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
	}
	d := Voronoi(sites, bounds)
	adj := make(map[[2]int]bool)
	for i, c := range d.Cells {
		for _, j := range c.Neighbors {
			adj[[2]int{i, j}] = true
		}
	}
	for key := range adj {
		if !adj[[2]int{key[1], key[0]}] {
			t.Errorf("adjacency %v not symmetric", key)
		}
	}
}

func TestCellContainingEmpty(t *testing.T) {
	d := &VoronoiDiagram{}
	if got := d.CellContaining(Point{X: 1, Y: 1}); got != -1 {
		t.Errorf("CellContaining on empty diagram = %d, want -1", got)
	}
}

func TestVoronoiCollinearSites(t *testing.T) {
	bounds := Rect(0, 0, 9, 3)
	sites := []Point{{1.5, 1.5}, {4.5, 1.5}, {7.5, 1.5}}
	d := Voronoi(sites, bounds)
	for i, c := range d.Cells {
		if got := c.Region.Area(); !almostEqual(got, 9, 1e-6) {
			t.Errorf("collinear cell %d area = %v, want 9", i, got)
		}
	}
	// Middle cell has two neighbors, outer cells one each.
	if len(d.Cells[1].Neighbors) != 2 {
		t.Errorf("middle cell neighbors = %v", d.Cells[1].Neighbors)
	}
	if len(d.Cells[0].Neighbors) != 1 || len(d.Cells[2].Neighbors) != 1 {
		t.Errorf("outer cell neighbors = %v / %v", d.Cells[0].Neighbors, d.Cells[2].Neighbors)
	}
}

func TestVoronoiSharedEdgeOnBisector(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bounds := Rect(0, 0, 20, 20)
	sites := make([]Point, 12)
	for i := range sites {
		sites[i] = Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
	}
	d := Voronoi(sites, bounds)
	for i, c := range d.Cells {
		for k, j := range c.Neighbors {
			e := c.SharedEdges[k]
			m := e.Mid()
			di := m.DistTo(sites[i])
			dj := m.DistTo(sites[j])
			if math.Abs(di-dj) > 1e-5 {
				t.Errorf("shared edge midpoint not equidistant: cell %d nbr %d (%v vs %v)", i, j, di, dj)
			}
		}
	}
}

// voronoiSiteSets yields the configurations the indexed construction is
// checked against the naive oracle on: uniform at several densities, a
// tight cluster plus far outliers, a regular grid (exact ties) and
// near-duplicate pairs.
func voronoiSiteSets(rng *rand.Rand) [][]Point {
	var sets [][]Point
	for _, n := range []int{1, 2, 3, 8, 40, 150} {
		sites := make([]Point, n)
		for i := range sites {
			sites[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		sets = append(sets, sites)
	}
	cluster := make([]Point, 30)
	for i := range cluster {
		cluster[i] = Point{X: 10 + rng.NormFloat64()*0.5, Y: 10 + rng.NormFloat64()*0.5}
	}
	cluster = append(cluster, Point{45, 45}, Point{45, 5}, Point{5, 45})
	sets = append(sets, cluster)
	var grid []Point
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			grid = append(grid, Point{X: 5 + float64(i)*10, Y: 5 + float64(j)*10})
		}
	}
	sets = append(sets, grid)
	dups := []Point{{3, 3}, {3, 3}, {20, 20}, {20.0000000005, 20}, {40, 8}}
	sets = append(sets, dups)
	return sets
}

// polygonsEquivalent reports whether two convex polygons describe the same
// region within tol: equal areas and every vertex of each within tol of the
// other's boundary.
func polygonsEquivalent(a, b Polygon, tol float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !almostEqual(a.Area(), b.Area(), tol) {
		return false
	}
	onBoundary := func(p Point, pg Polygon) bool {
		for _, e := range pg.Edges() {
			if e.DistToPoint(p) <= tol {
				return true
			}
		}
		return false
	}
	for _, v := range a {
		if !onBoundary(v, b) {
			return false
		}
	}
	for _, v := range b {
		if !onBoundary(v, a) {
			return false
		}
	}
	return true
}

// TestVoronoiIndexedMatchesNaive compares Voronoi with VoronoiNaive on
// every voronoiSiteSets configuration: regions within 1e-6, adjacency read
// from the edge labels against the oracle's midpoint attribution, and
// nearest-site lookups exactly. The cells that own a near-duplicate twin
// are the exception: there the labels' rule is asserted instead.
func TestVoronoiIndexedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	bounds := Rect(0, 0, 50, 50)
	// twinOwners lists, for the near-duplicate set, the neighbours of the
	// cells that own a twin (sites 0 and 2).
	twinOwners := map[int][]int{0: {2, 3, 4}, 2: {0, 4}}
	for si, sites := range voronoiSiteSets(rng) {
		nearDups := false
		for i := range sites {
			for j := range i {
				nearDups = nearDups || sites[i].NearlyEqual(sites[j])
			}
		}
		indexed := Voronoi(sites, bounds)
		naive := VoronoiNaive(sites, bounds)
		if len(indexed.Cells) != len(naive.Cells) {
			t.Fatalf("set %d: cell count %d vs %d", si, len(indexed.Cells), len(naive.Cells))
		}
		for i := range indexed.Cells {
			ic, nc := &indexed.Cells[i], &naive.Cells[i]
			if !polygonsEquivalent(ic.Region, nc.Region, 1e-6) {
				t.Fatalf("set %d cell %d: regions differ:\nindexed %v\nnaive   %v", si, i, ic.Region, nc.Region)
			}
			in := append([]int(nil), ic.Neighbors...)
			nn := append([]int(nil), nc.Neighbors...)
			sort.Ints(in)
			sort.Ints(nn)
			if want, ok := twinOwners[i]; nearDups && ok {
				// Midpoint attribution cannot tell a site from its twin, so
				// it hands the twin every edge of the owner's cell. The
				// labels name the site whose bisector made each edge.
				nn = want
				for k, j := range ic.Neighbors {
					if sites[j].NearlyEqual(ic.Site) || !onBisector(ic.SharedEdges[k], ic.Site, sites[j]) {
						t.Fatalf("set %d cell %d: edge %v labelled %d", si, i, ic.SharedEdges[k], j)
					}
				}
			}
			if !slices.Equal(in, nn) {
				t.Fatalf("set %d cell %d: neighbors %v vs %v", si, i, in, nn)
			}
		}
		// Nearest-site lookups are exact, so they must agree bit-for-bit.
		for probe := 0; probe < 400; probe++ {
			p := Point{X: rng.Float64()*60 - 5, Y: rng.Float64()*60 - 5}
			if gi, gn := indexed.CellContaining(p), naive.CellContaining(p); gi != gn {
				t.Fatalf("set %d: CellContaining(%v) = %d indexed vs %d naive", si, p, gi, gn)
			}
		}
	}
}

// onBisector reports whether edge e lies on the bisector of s and t:
// both endpoints equidistant from the two sites within 1e-6.
func onBisector(e Segment, s, t Point) bool {
	for _, p := range []Point{e.A, e.B} {
		if math.Abs(p.DistTo(s)-p.DistTo(t)) > 1e-6 {
			return false
		}
	}
	return true
}

// TestVoronoiDuplicateSiteAdjacency checks that the owner of a duplicated
// site lists its real neighbour and not its twin, whose region is nil:
// adjacency is read from the clips, and the twin's bisector is never
// clipped.
func TestVoronoiDuplicateSiteAdjacency(t *testing.T) {
	sites := []Point{{3, 3}, {3, 3}, {7, 7}}
	d := Voronoi(sites, Rect(0, 0, 10, 10))
	for i, want := range [][]int{{2}, nil, {0}} {
		if got := d.Cells[i].Neighbors; !slices.Equal(got, want) {
			t.Errorf("cell %d neighbors = %v, want %v", i, got, want)
		}
	}
	if e := d.Cells[0].SharedEdges; len(e) != 1 || !onBisector(e[0], sites[0], sites[2]) {
		t.Errorf("cell 0 shared edges = %v, want one edge on the bisector of sites 0 and 2", e)
	}
}

func TestCellContainingSkipsDegenerateDuplicateCell(t *testing.T) {
	bounds := Rect(0, 0, 10, 10)
	// sites[1] duplicates sites[0] within Eps but is strictly nearer to the
	// probe; its cell is degenerate (nil Region) and must never be returned.
	sites := []Point{{3, 3}, {3.0000000008, 3}, {7, 7}}
	d := Voronoi(sites, bounds)
	if d.Cells[1].Region != nil {
		t.Fatalf("expected duplicate cell 1 to have nil region")
	}
	p := Point{X: 3.000000001, Y: 3}
	got := d.CellContaining(p)
	if got == 1 {
		t.Fatalf("CellContaining returned the degenerate duplicate cell")
	}
	if got != 0 {
		t.Fatalf("CellContaining = %d, want 0", got)
	}
	// The caller contract: the returned cell's Region is walkable.
	if !d.Cells[got].Region.Contains(p) {
		t.Errorf("returned cell's region does not contain the probe")
	}
	// Same guarantee on the naive construction (no index, scan fallback).
	if got := VoronoiNaive(sites, bounds).CellContaining(p); got != 0 {
		t.Fatalf("naive CellContaining = %d, want 0", got)
	}
}

// benchSites places k sites uniformly over the 50x50 field (seeded).
func benchSites(k int) []Point {
	rng := rand.New(rand.NewSource(int64(k)))
	sites := make([]Point, k)
	for i := range sites {
		sites[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
	}
	return sites
}

// BenchmarkVoronoi times one diagram build. The k cases are uniformly
// random sites; the isoline cases are isolineSites, where each cell is a
// long strip along its curve and its security radius covers most of the
// level, the shape of a contour level's isoposition reports.
func BenchmarkVoronoi(b *testing.B) {
	bounds := Rect(0, 0, 50, 50)
	run := func(name string, sites []Point) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := Voronoi(sites, bounds); len(d.Cells) != len(sites) {
					b.Fatal("bad diagram")
				}
			}
		})
	}
	for _, k := range []int{32, 128, 512, 2048} {
		run(fmt.Sprintf("k=%d", k), benchSites(k))
	}
	for _, k := range []int{256, 1000} {
		run(fmt.Sprintf("isoline/k=%d", k), isolineSites(k))
	}
}

func BenchmarkVoronoiNaive(b *testing.B) {
	bounds := Rect(0, 0, 50, 50)
	for _, k := range []int{32, 128, 512, 2048} {
		sites := benchSites(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := VoronoiNaive(sites, bounds); len(d.Cells) != k {
					b.Fatal("bad diagram")
				}
			}
		})
	}
}
