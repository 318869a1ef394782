package geom

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzClipHalfPlane feeds arbitrary half-planes to the clipper; the result
// must always be inside both the half-plane and the original rectangle, and
// clipping into a dirty, reused buffer must give the fresh result bit for
// bit (nil included).
func FuzzClipHalfPlane(f *testing.F) {
	f.Add(5.0, 5.0, 1.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(-3.0, 12.0, 0.5, -0.5)
	f.Fuzz(func(t *testing.T, ox, oy, nx, ny float64) {
		for _, v := range []float64{ox, oy, nx, ny} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		h := HalfPlane{Origin: Point{X: ox, Y: oy}, Normal: Vec{X: nx, Y: ny}}
		pg := Rect(0, 0, 10, 10)
		clipped := pg.ClipHalfPlane(h)
		dirty := make(Polygon, 5, 16)
		for i := range dirty {
			dirty[i] = Point{X: math.NaN(), Y: float64(i)}
		}
		if reused := pg.clipInto(dirty, h); !polygonBitsEqual(reused, clipped) {
			t.Fatalf("clipInto into a reused buffer = %v, ClipHalfPlane = %v", reused, clipped)
		}
		area := clipped.Area()
		if area < 0 || area > 100+1e-6 {
			t.Fatalf("clipped area %v outside [0, 100]", area)
		}
		if h.Normal.Norm() <= Eps {
			return
		}
		tol := 1e-6 * (1 + h.Normal.Norm()) * 20
		for _, p := range clipped {
			if h.Side(p) > tol {
				t.Fatalf("vertex %v outside half-plane by %v", p, h.Side(p))
			}
		}
	})
}

// polygonBitsEqual reports whether a and b are both nil or hold the same
// vertices bit for bit.
func polygonBitsEqual(a, b Polygon) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// FuzzSegmentIntersection checks that intersection points (when reported)
// actually lie near both segments.
func FuzzSegmentIntersection(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return
			}
		}
		s1 := Segment{A: Point{X: ax, Y: ay}, B: Point{X: bx, Y: by}}
		s2 := Segment{A: Point{X: cx, Y: cy}, B: Point{X: dx, Y: dy}}
		p, ok := IntersectSegments(s1, s2)
		if !ok {
			return
		}
		scale := 1 + s1.Length() + s2.Length()
		if s1.DistToPoint(p) > 1e-6*scale || s2.DistToPoint(p) > 1e-6*scale {
			t.Fatalf("intersection %v off segments by %v / %v",
				p, s1.DistToPoint(p), s2.DistToPoint(p))
		}
	})
}

// FuzzNNIndexNearest checks Nearest against a linear scan for seeded site
// sets and arbitrary probes — far, huge and non-finite ones included. A
// finite probe must get the brute-force answer (lowest index on exact
// ties); a non-finite one any valid site index.
func FuzzNNIndexNearest(f *testing.F) {
	f.Add(int64(1), uint8(40), 25.0, 25.0)
	f.Add(int64(2), uint8(200), 1e6, 3.0)
	f.Add(int64(3), uint8(7), -1e12, 1e8)
	f.Add(int64(4), uint8(36), 10.0, 20.0)
	f.Add(int64(5), uint8(1), math.NaN(), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, x, y float64) {
		rng := rand.New(rand.NewSource(seed))
		sites := make([]Point, int(n)+1)
		for i := range sites {
			// Half the seeds snap sites to a coarse lattice for exact ties.
			sx, sy := rng.Float64()*50, rng.Float64()*50
			if seed%2 == 0 {
				sx, sy = math.Round(sx/5)*5, math.Round(sy/5)*5
			}
			sites[i] = Point{X: sx, Y: sy}
		}
		ix := NewNNIndex(sites, Rect(0, 0, 50, 50))
		p := Point{X: x, Y: y}
		got := ix.Nearest(p)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			if got < 0 || got >= len(sites) {
				t.Fatalf("Nearest(%v) = %d, want a site index", p, got)
			}
			return
		}
		if want := bruteNearest(sites, p, -1); got != want {
			t.Fatalf("Nearest(%v) = %d (d2 %v), brute = %d (d2 %v)", p, got, p.Dist2To(sites[got]), want, p.Dist2To(sites[want]))
		}
	})
}
