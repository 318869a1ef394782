package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratSign evaluates the sign of the determinant of rows, each a slice of
// rationals, by cofactor expansion; the reference the float filters are
// checked against.
func ratSign(rows [][]*big.Rat) int {
	return ratDet(rows).Sign()
}

func ratDet(rows [][]*big.Rat) *big.Rat {
	if len(rows) == 1 {
		return new(big.Rat).Set(rows[0][0])
	}
	det := new(big.Rat)
	for col := range rows {
		var minor [][]*big.Rat
		for _, r := range rows[1:] {
			var m []*big.Rat
			m = append(m, r[:col]...)
			m = append(m, r[col+1:]...)
			minor = append(minor, m)
		}
		term := new(big.Rat).Mul(rows[0][col], ratDet(minor))
		if col%2 == 1 {
			term.Neg(term)
		}
		det.Add(det, term)
	}
	return det
}

func rat(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

// refOrient is the sign of |ax ay 1; bx by 1; cx cy 1|.
func refOrient(a, b, c Point) int {
	one := big.NewRat(1, 1)
	return ratSign([][]*big.Rat{
		{rat(a.X), rat(a.Y), one},
		{rat(b.X), rat(b.Y), one},
		{rat(c.X), rat(c.Y), one},
	})
}

// refIncircle is the sign of the lifted 4×4 determinant
// |x y x²+y² 1| over a, b, c, d.
func refIncircle(a, b, c, d Point) int {
	one := big.NewRat(1, 1)
	row := func(p Point) []*big.Rat {
		x, y := rat(p.X), rat(p.Y)
		l := new(big.Rat).Mul(x, x)
		l.Add(l, new(big.Rat).Mul(y, y))
		return []*big.Rat{x, y, l, one}
	}
	return ratSign([][]*big.Rat{row(a), row(b), row(c), row(d)})
}

// checkPredicates fails t unless orient and incircle over a, b, c, d give
// the rational reference's signs.
func checkPredicates(t *testing.T, a, b, c, d Point) {
	t.Helper()
	if got, want := orient(a, b, c), refOrient(a, b, c); got != want {
		t.Fatalf("orient(%v, %v, %v) = %d, exact %d", a, b, c, got, want)
	}
	if got, want := incircle(a, b, c, d), refIncircle(a, b, c, d); got != want {
		t.Fatalf("incircle(%v, %v, %v, %v) = %d, exact %d", a, b, c, d, got, want)
	}
}

// FuzzDelaunayPredicates checks the filtered orient and incircle signs
// against big.Rat determinants on any finite coordinates. The seeds are
// collinear, lattice-cocircular and near-duplicate points, and points
// scaled from 1e-3 to 1e6, where the float filter cannot decide and the
// exact fallback answers.
func FuzzDelaunayPredicates(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.5)
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
	f.Add(25.0, 25.0, 25.000000001, 25.0, 30.0, 31.0, 25.0, 25.0000000005)
	f.Add(0.001, 0.002, 0.003, 0.001, 0.002, 0.004, 0.0025, 0.0025)
	f.Add(1e6, 0.0, 0.0, 1e6, -1e6, 0.0, 0.0, -1e6)
	f.Add(0.5, 0.5, 12.0, 12.0, 24.0, 24.0, 0.5+0x1p-50, 0.5)
	f.Add(2.5, 7.5, 7.5, 2.5, 12.5, 7.5, 7.5, 12.5)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		checkPredicates(t, Point{ax, ay}, Point{bx, by}, Point{cx, cy}, Point{dx, dy})
	})
}

// TestDelaunayPredicatesExact drives both exact fallbacks: exact
// collinearity and cocircularity, perturbations below the float filter's
// bound, coordinates small enough to underflow the products and large
// enough to overflow them.
func TestDelaunayPredicatesExact(t *testing.T) {
	cases := [][4]Point{
		{{0, 0}, {1, 1}, {2, 2}, {3, 3}},
		{{0, 0}, {1, 0}, {1, 1}, {0, 1}},
		{{0.5, 0.5}, {12, 12}, {24, 24}, {0.5 + 0x1p-50, 0.5}},
		{{0.5, 0.5 + 0x1p-52}, {12, 12}, {24, 24}, {-3, 40}},
		{{2.5, 7.5}, {7.5, 2.5}, {12.5, 7.5}, {7.5, 12.5 + 0x1p-49}},
		{{1e-300, 2e-300}, {3e-300, 1e-300}, {2e-300, 4e-300}, {2.5e-300, 2.5e-300}},
		{{1e300, 0}, {0, 1e300}, {-1e300, 0}, {0, -1e300}},
		{{1e6, 0}, {0, 1e6}, {-1e6, 0}, {0, -1e6}},
	}
	for _, c := range cases {
		checkPredicates(t, c[0], c[1], c[2], c[3])
		checkPredicates(t, c[1], c[0], c[2], c[3])
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 2000; k++ {
		// Lattice points at a random scale: ties everywhere.
		s := math.Pow(10, rng.Float64()*9-3)
		var p [4]Point
		for i := range p {
			p[i] = Point{X: float64(rng.Intn(5)) * s, Y: float64(rng.Intn(5)) * s}
		}
		checkPredicates(t, p[0], p[1], p[2], p[3])
	}
}

// checkTriangulation fails t unless dt is a valid Delaunay triangulation
// of keep: 2k − 2 triangles, ghosts included; counterclockwise real
// triangles; mutual neighbour links across every edge; no site strictly
// inside the circumcircle of a neighbouring triangle (local Delaunay, which
// implies global); and every site's vt naming a triangle that holds it.
func checkTriangulation(t *testing.T, name string, dt *delaunay, keep []int32) {
	t.Helper()
	if len(dt.tris) != 2*len(keep)-2 {
		t.Fatalf("%s: %d triangles for %d sites, want %d", name, len(dt.tris), len(keep), 2*len(keep)-2)
	}
	for ti, tr := range dt.tris {
		t32 := int32(ti)
		if !dt.isGhost(t32) && orient(dt.sites[tr.v[0]], dt.sites[tr.v[1]], dt.sites[tr.v[2]]) <= 0 {
			t.Fatalf("%s: triangle %d %v is not counterclockwise", name, ti, tr.v)
		}
		for k := 0; k < 3; k++ {
			nb := &dt.tris[tr.n[k]]
			a, b := tr.v[(k+1)%3], tr.v[(k+2)%3]
			back := -1
			for j := 0; j < 3; j++ {
				if nb.n[j] == t32 {
					back = j
				}
			}
			if back < 0 || nb.v[(back+1)%3] != b || nb.v[(back+2)%3] != a {
				t.Fatalf("%s: triangles %d and %d do not share edge %d–%d", name, ti, tr.n[k], a, b)
			}
			if !dt.isGhost(t32) && nb.v[back] != dt.ghost {
				opp := dt.sites[nb.v[back]]
				if incircle(dt.sites[tr.v[0]], dt.sites[tr.v[1]], dt.sites[tr.v[2]], opp) > 0 {
					t.Fatalf("%s: site %d lies inside the circumcircle of triangle %d", name, nb.v[back], ti)
				}
			}
		}
	}
	for _, v := range keep {
		tr := dt.tris[dt.vt[v]]
		if tr.v[0] != v && tr.v[1] != v && tr.v[2] != v {
			t.Fatalf("%s: vt[%d] = %d does not hold the site", name, v, dt.vt[v])
		}
	}
}

// TestDelaunayTriangulation checks the triangulation of uniform, isoline,
// lattice, cocircular and walkSites' collinear-run sites, and that
// all-collinear sites, the float-rounded diagonal run included, build
// nothing.
func TestDelaunayTriangulation(t *testing.T) {
	var circle []Point
	for k := 0; k < 24; k++ {
		th := 2 * math.Pi * float64(k) / 24
		circle = append(circle, Point{X: 25 + 20*math.Cos(th), Y: 25 + 20*math.Sin(th)})
	}
	var diagonal []Point
	for x := 0.1; x < 1; x += 0.2 {
		diagonal = append(diagonal, Point{X: 50 * x, Y: 50 * x})
	}
	sets := map[string][]Point{
		"uniform": benchSites(300),
		"isoline": isolineSites(400),
		"lattice": lattice(9),
		"circle":  circle,
		"walk":    walkSites(rand.New(rand.NewSource(3)), 80, 3),
	}
	for name, sites := range sets {
		keep := make([]int32, len(sites))
		for i := range keep {
			keep[i] = int32(i)
		}
		var dt delaunay
		if !dt.triangulate(sites, keep) {
			t.Fatalf("%s: sites reported collinear", name)
		}
		checkTriangulation(t, name, &dt, keep)
	}
	for _, collinear := range [][]Point{{{0, 1}, {2, 3}, {4, 5}, {-7, -6}}, diagonal} {
		keep := make([]int32, len(collinear))
		for i := range keep {
			keep[i] = int32(i)
		}
		var dt delaunay
		if dt.triangulate(collinear, keep) {
			t.Fatalf("collinear sites %v triangulated", collinear)
		}
	}
}
