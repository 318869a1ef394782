package geom

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// bruteNearest mirrors the linear scans the index replaces: lowest index
// wins exact ties.
func bruteNearest(sites []Point, p Point, exclude int) int {
	best, bestD2 := -1, 0.0
	for i, s := range sites {
		if i == exclude {
			continue
		}
		d2 := p.Dist2To(s)
		if best < 0 || d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best
}

// randomSiteSets yields the site configurations every index property is
// checked against: uniform, tightly clustered (many near-ties), grid
// (exact ties), tiny sets and duplicates.
func randomSiteSets(rng *rand.Rand) [][]Point {
	uniform := make([]Point, 60)
	for i := range uniform {
		uniform[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
	}
	cluster := make([]Point, 40)
	for i := range cluster {
		cluster[i] = Point{X: 25 + rng.NormFloat64(), Y: 25 + rng.NormFloat64()}
	}
	var grid []Point
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			grid = append(grid, Point{X: float64(i) * 10, Y: float64(j) * 10})
		}
	}
	dup := []Point{{3, 3}, {3, 3}, {3, 3}, {40, 40}, {3, 3.0000000005}}
	single := []Point{{17, 9}}
	line := []Point{{0, 5}, {10, 5}, {20, 5}, {30, 5}, {50, 5}}
	return [][]Point{uniform, cluster, grid, dup, single, line}
}

// probes mixes in-bounds, boundary and out-of-bounds query points.
func probes(rng *rand.Rand, n int) []Point {
	out := make([]Point, 0, n+4)
	for i := 0; i < n; i++ {
		out = append(out, Point{X: rng.Float64()*70 - 10, Y: rng.Float64()*70 - 10})
	}
	out = append(out, Point{0, 0}, Point{50, 50}, Point{-100, 25}, Point{25, 200})
	return out
}

func TestNNIndexNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	bounds := Rect(0, 0, 50, 50)
	for si, sites := range randomSiteSets(rng) {
		ix := NewNNIndex(sites, bounds)
		for _, p := range probes(rng, 300) {
			want := bruteNearest(sites, p, -1)
			if got := ix.Nearest(p); got != want {
				t.Fatalf("set %d: Nearest(%v) = %d, brute = %d", si, p, got, want)
			}
		}
	}
}

func TestNNIndexWarmStartHintIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	bounds := Rect(0, 0, 50, 50)
	for si, sites := range randomSiteSets(rng) {
		ix := NewNNIndex(sites, bounds)
		for _, p := range probes(rng, 100) {
			want := ix.Nearest(p)
			// Every hint — the right answer, the farthest site, invalid
			// indices — must return the cold-query result.
			hints := []int{want, 0, len(sites) - 1, rng.Intn(len(sites)), -1, len(sites), 999999}
			for _, h := range hints {
				if got := ix.NearestWarm(p, h); got != want {
					t.Fatalf("set %d: NearestWarm(%v, hint %d) = %d, want %d", si, p, h, got, want)
				}
			}
		}
	}
}

func TestNNIndexEmpty(t *testing.T) {
	ix := NewNNIndex(nil, Rect(0, 0, 10, 10))
	if got := ix.Nearest(Point{1, 2}); got != -1 {
		t.Errorf("Nearest on empty index = %d, want -1", got)
	}
	if got := ix.NearestWarm(Point{1, 2}, 3); got != -1 {
		t.Errorf("NearestWarm on empty index = %d, want -1", got)
	}
}

func TestNNIndexDegenerateGeometry(t *testing.T) {
	// All sites coincident, and all sites collinear: the grid degenerates
	// but queries must stay exact.
	coincident := []Point{{7, 7}, {7, 7}, {7, 7}}
	collinear := []Point{{0, 3}, {1, 3}, {2, 3}, {30, 3}}
	for si, sites := range [][]Point{coincident, collinear} {
		ix := NewNNIndex(sites, nil)
		rng := rand.New(rand.NewSource(int64(76 + si)))
		for _, p := range probes(rng, 50) {
			if got, want := ix.Nearest(p), bruteNearest(sites, p, -1); got != want {
				t.Fatalf("set %d: Nearest(%v) = %d, want %d", si, p, got, want)
			}
		}
	}
}

// TestNNIndexFarAndNonFiniteProbes: a probe far outside the grid must
// still find the brute-force nearest site, without walking the empty rings
// between it and the grid, and a non-finite probe must return a valid site
// instead of overflowing the ring arithmetic.
func TestNNIndexFarAndNonFiniteProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sites := make([]Point, 200)
	for i := range sites {
		sites[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
	}
	ix := NewNNIndex(sites, Rect(0, 0, 50, 50))
	start := time.Now()
	for _, p := range []Point{
		{1e6, 25}, {-1e6, 3}, {25, 1e8}, {1e8, -1e8}, {1e12, 0}, {-3e15, 40},
		{1e300, 1e300}, {-1e300, 7},
	} {
		if got, want := ix.Nearest(p), bruteNearest(sites, p, -1); got != want {
			t.Errorf("Nearest(%v) = %d, brute = %d", p, got, want)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("far probes took %v: the search walks the empty rings", d)
	}
	inf := math.Inf(1)
	for _, p := range []Point{{math.NaN(), 1}, {1, math.NaN()}, {inf, 3}, {-inf, -inf}} {
		if got := ix.Nearest(p); got < 0 || got >= len(sites) {
			t.Errorf("Nearest(%v) = %d, want a site index", p, got)
		}
	}
}

// TestNNIndexFarSiteGridBounded: one finite site far outside the field
// must not stretch the grid into a strip of millions of empty buckets
// that every query near the field then walks.
func TestNNIndexFarSiteGridBounded(t *testing.T) {
	for _, sites := range [][]Point{
		{{1.09e16, 2.9}},
		{{1.09e16, 2.9}, {28, 4}, {34, 3}, {17, 36}},
		{{3, 4}, {5, -2e15}},
	} {
		ix := NewNNIndex(sites, Rect(0, 0, 50, 50))
		if n := len(sites); ix.nx*ix.ny > 3*n+1 {
			t.Errorf("%d sites: %dx%d grid, want at most %d buckets", n, ix.nx, ix.ny, 3*n+1)
		}
		for _, p := range []Point{{0, 0}, {25, 25}, {50, 49}, {1e16, 0}} {
			hint := len(sites) - 1
			if got, want := ix.NearestWarm(p, hint), bruteNearest(sites, p, -1); got != want {
				t.Errorf("NearestWarm(%v, %d) = %d, brute = %d", p, hint, got, want)
			}
		}
	}
}
