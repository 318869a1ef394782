package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// sameRegion reports whether a and b list the same vertices within tol,
// vertex by vertex, up to where each list starts.
func sameRegion(a, b Polygon, tol float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for r := range b {
		ok := true
		for k, v := range a {
			w := b[(k+r)%len(b)]
			if math.Abs(v.X-w.X) > tol || math.Abs(v.Y-w.Y) > tol {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return len(a) == 0
}

// checkMatchesNaive fails t unless Voronoi over sites matches VoronoiNaive:
// every region vertex by vertex within 1e-7, whatever vertex each list
// starts at, and every neighbour set. Two sites d apart fix their bisector's
// direction only to ~u·|s|/d, so where non-twin sites come closer than
// 1e-7 the vertex tolerance grows to 1e-14/d. A site with a lower-index NearlyEqual
// twin takes no part in the Delaunay diagram, so the oracle is built over
// the sites without such twins: the naive construction would still clip the
// other sites' cells by a twin's bisector, nearly the same line as its
// owner's, and split off a sliver for it.
func checkMatchesNaive(t *testing.T, name string, sites []Point, bounds Polygon) {
	t.Helper()
	var kept []Point
	var idx []int
	for i, s := range sites {
		twin := false
		for _, r := range sites[:i] {
			twin = twin || s.NearlyEqual(r)
		}
		if !twin {
			kept = append(kept, s)
			idx = append(idx, i)
		}
	}
	tol := 1e-7
	for i, s := range kept {
		for _, r := range kept[:i] {
			tol = max(tol, 1e-14/s.DistTo(r))
		}
	}
	got, want := Voronoi(sites, bounds), VoronoiNaive(kept, bounds)
	for k := range want.Cells {
		i, wc := idx[k], &want.Cells[k]
		gc := &got.Cells[i]
		if !sameRegion(gc.Region, wc.Region, tol) {
			t.Fatalf("%s cell %d: regions differ:\ndelaunay %v\nnaive    %v", name, i, gc.Region, wc.Region)
		}
		wn := make([]int, len(wc.Neighbors))
		for m, j := range wc.Neighbors {
			wn[m] = idx[j]
		}
		gn := slices.Clone(gc.Neighbors)
		slices.Sort(gn)
		slices.Sort(wn)
		if !slices.Equal(gn, wn) {
			t.Fatalf("%s cell %d: neighbours %v, naive %v", name, i, gn, wn)
		}
		for m, j := range gc.Neighbors {
			if !onBisector(gc.SharedEdges[m], gc.Site, sites[j]) {
				t.Fatalf("%s cell %d: edge %v listed with %d", name, i, gc.SharedEdges[m], j)
			}
		}
	}
	for i := range got.Cells {
		if len(kept) == len(sites) {
			break
		}
		if !slices.Contains(idx, i) && (got.Cells[i].Region != nil || got.Cells[i].Neighbors != nil) {
			t.Fatalf("%s cell %d: a twin has region %v, neighbours %v", name, i, got.Cells[i].Region, got.Cells[i].Neighbors)
		}
	}
}

// lattice returns the n×n lattice of sites at the centres of a 50×50
// field's n×n squares: every four neighbouring sites are cocircular.
func lattice(n int) []Point {
	var sites []Point
	step := 50 / float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sites = append(sites, Point{X: step * (float64(i) + 0.5), Y: step * (float64(j) + 0.5)})
		}
	}
	return sites
}

// TestVoronoiIndexedMatchesNaive compares Voronoi with VoronoiNaive on
// every voronoiSiteSets configuration, the TestVoronoiDigest inputs,
// lattices, collinear runs and near-duplicate sets, and checks
// nearest-site lookups exactly.
func TestVoronoiIndexedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	bounds := Rect(0, 0, 50, 50)
	sets := voronoiSiteSets(rng)
	sets = append(sets, benchSites(32), benchSites(512), benchSites(2048), isolineSites(1000),
		churnedSites(), lattice(10), lattice(7),
		[]Point{{1, 25}, {7, 25}, {20, 25}, {21, 25}, {49, 25}},
		[]Point{{5, 5}, {15, 15}, {25, 25}, {35, 35}, {45, 45}},
		walkSites(rand.New(rand.NewSource(9)), 200, 7),
		walkSites(rand.New(rand.NewSource(4)), 60, 2))
	for si, sites := range sets {
		name := fmt.Sprintf("set %d", si)
		checkMatchesNaive(t, name, sites, bounds)
		d, naive := Voronoi(sites, bounds), VoronoiNaive(sites, bounds)
		for probe := 0; probe < 400; probe++ {
			p := Point{X: rng.Float64()*60 - 5, Y: rng.Float64()*60 - 5}
			if gi, gn := d.CellContaining(p), naive.CellContaining(p); gi != gn {
				t.Fatalf("%s: CellContaining(%v) = %d indexed vs %d naive", name, p, gi, gn)
			}
		}
	}
}

// TestVoronoiConvexBounds compares Voronoi with VoronoiNaive inside
// convex bounds that are not rectangles, given in either orientation.
func TestVoronoiConvexBounds(t *testing.T) {
	var hexagon, triangle Polygon
	for k := 0; k < 6; k++ {
		th := math.Pi / 3 * float64(k)
		hexagon = append(hexagon, Point{X: 25 + 24*math.Cos(th), Y: 25 + 24*math.Sin(th)})
	}
	triangle = Polygon{{2, 3}, {49, 10}, {20, 48}}
	cw := slices.Clone(hexagon)
	slices.Reverse(cw)
	for bi, bounds := range []Polygon{hexagon, triangle, cw} {
		for _, sites := range [][]Point{benchSites(128), isolineSites(256), lattice(6)} {
			checkMatchesNaive(t, fmt.Sprintf("bounds %d", bi), sites, bounds)
		}
	}
}

// TestVoronoiDegenerateBounds: bounds of fewer than three vertices or no
// area give every cell a nil region and no neighbours.
func TestVoronoiDegenerateBounds(t *testing.T) {
	for _, bounds := range []Polygon{nil, {{0, 0}}, {{0, 0}, {50, 50}}, {{3, 3}, {3, 3}, {3, 3}}, {{0, 0}, {10, 0}, {20, 0}}} {
		for _, sites := range [][]Point{{{5, 5}}, benchSites(20)} {
			d := Voronoi(sites, bounds)
			for i, c := range d.Cells {
				if c.Region != nil || c.Neighbors != nil {
					t.Fatalf("bounds %v: cell %d has region %v, neighbours %v", bounds, i, c.Region, c.Neighbors)
				}
			}
		}
	}
}

// TestVoronoiNoCellListsNilTwin: a site with a lower-index NearlyEqual
// twin has a nil region, and no cell lists it as a neighbour, so every
// listed neighbour can be regulated against.
func TestVoronoiNoCellListsNilTwin(t *testing.T) {
	sites := []Point{{10, 10}, {30, 12}, {30 + 5e-10, 12}, {20, 35}}
	d := Voronoi(sites, Rect(0, 0, 50, 50))
	if d.Cells[2].Region != nil {
		t.Fatalf("site 2, a twin of site 1, has region %v", d.Cells[2].Region)
	}
	got := slices.Clone(d.Cells[3].Neighbors)
	slices.Sort(got)
	if !slices.Equal(got, []int{0, 1}) {
		t.Errorf("cell 3 neighbours = %v, want [0 1] in some order", d.Cells[3].Neighbors)
	}
	iso := isolineSites(64)
	for _, k := range []int{13, 41, 7} {
		iso = append(iso, Point{X: iso[k].X + 4e-10, Y: iso[k].Y - 3e-10})
	}
	for _, sites := range [][]Point{sites, iso} {
		d := Voronoi(sites, Rect(0, 0, 50, 50))
		for i, c := range d.Cells {
			for _, j := range c.Neighbors {
				if d.Cells[j].Region == nil {
					t.Errorf("cell %d lists %d, whose region is nil", i, j)
				}
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
// the twin takes no part in the triangulation.
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
// random sites; the isoline cases are isolineSites, the shape of a contour
// level's isoposition reports, where each cell is a long strip along its
// curve.
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

// TestVoronoiNonFiniteSites: a non-finite site gets a nil region and no
// neighbours, no cell lists it, and the other cells are the diagram of
// the finite sites alone.
func TestVoronoiNonFiniteSites(t *testing.T) {
	finite := benchSites(40)
	sites := append(slices.Clone(finite), Point{X: math.NaN(), Y: 3}, Point{X: 4, Y: math.Inf(1)})
	bounds := Rect(0, 0, 50, 50)
	d, want := Voronoi(sites, bounds), Voronoi(finite, bounds)
	for i, c := range d.Cells {
		if i >= len(finite) {
			if c.Region != nil || c.Neighbors != nil {
				t.Errorf("non-finite site %d: region %v, neighbours %v", i, c.Region, c.Neighbors)
			}
			continue
		}
		if !slices.Equal(c.Region, want.Cells[i].Region) || !slices.Equal(c.Neighbors, want.Cells[i].Neighbors) {
			t.Errorf("cell %d differs from the finite sites' diagram", i)
		}
	}
}

// TestCircumcentreFlatTriangle: a counterclockwise triangle so flat that
// its float orientation rounds to zero still gets a finite circumcentre,
// far out on the side of line a–c away from b, where the exact one lies.
func TestCircumcentreFlatTriangle(t *testing.T) {
	a := Point{X: 14.655712227692902, Y: 14.854128177814577}
	b := Point{X: 19.70717293872514, Y: 8.985781416088548}
	c := Point{X: 24.75863364975738, Y: 3.1174346543625195}
	if orient(a, b, c) <= 0 {
		t.Fatal("the triangle is not counterclockwise")
	}
	cc := circumcentre(a, b, c)
	if math.IsNaN(cc.X) || math.IsNaN(cc.Y) || math.IsInf(cc.X, 0) || math.IsInf(cc.Y, 0) {
		t.Fatalf("circumcentre %v is not finite", cc)
	}
	if orient(a, c, cc) <= 0 || cc.DistTo(a) < 1e6 {
		t.Errorf("circumcentre %v: want it far left of a→c", cc)
	}
}
