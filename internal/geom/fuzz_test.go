package geom

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzClipHalfPlane feeds arbitrary half-planes to the clipper; the result
// must always be inside both the half-plane and the original rectangle, and
// clipping into a dirty, reused buffer must give the fresh result bit for
// bit (nil included). A labelled clip must give the same vertices, one
// label per vertex, and put every edge on the line its label names: the
// rectangle edge it came from, or h's boundary.
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
		if reused, _, _ := pg.clipInto(dirty, h, nil, nil, 0); !polygonBitsEqual(reused, clipped) {
			t.Fatalf("clipInto into a reused buffer = %v, ClipHalfPlane = %v", reused, clipped)
		}
		const hLabel = 7
		labelled, labels, within := pg.clipInto(nil, h, []int32{0, 1, 2, 3}, make([]int32, 2, 3), hLabel)
		if !polygonBitsEqual(labelled, clipped) || len(labels) != len(labelled) {
			t.Fatalf("labelled clip = %v with labels %v, ClipHalfPlane = %v", labelled, labels, clipped)
		}
		for k, l := range labels {
			a, b := labelled[k], labelled[(k+1)%len(labelled)]
			line, tol := HalfPlane{}, 2*Eps
			switch {
			case l >= 0 && l < 4:
				line = HalfPlane{Origin: pg[l], Normal: pg[(l+1)%4].Sub(pg[l])}
				line.Normal = Vec{X: line.Normal.Y, Y: -line.Normal.X}
			case l == hLabel:
				if !within || max(math.Abs(ox), math.Abs(oy)) > 1e6 {
					continue
				}
				line, tol = h, 1e-8*(11+max(math.Abs(ox), math.Abs(oy)))
			default:
				t.Fatalf("edge %d has label %d", k, l)
			}
			n := line.Normal.Norm()
			if math.Abs(line.Side(a))/n > tol || math.Abs(line.Side(b))/n > tol {
				t.Fatalf("edge %v–%v labelled %d lies off its line (distances %v, %v)",
					a, b, l, math.Abs(line.Side(a))/n, math.Abs(line.Side(b))/n)
			}
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

// walkSites builds the site layout of one FuzzVoronoiNearest input from the
// bits of layout: points along wobbly closed curves (the isoline shape),
// runs of exactly collinear sites, exact duplicates, and near-duplicates at
// offsets from below Eps to just past walkMinSep.
func walkSites(rng *rand.Rand, n int, layout uint8) []Point {
	sites := make([]Point, 0, 2*n)
	for i := 0; i < n; i++ {
		if layout&1 != 0 {
			th := rng.Float64() * 2 * math.Pi
			r := 12 + 3*math.Sin(3*th) + rng.NormFloat64()*0.02
			sites = append(sites, Point{X: 25 + r*math.Cos(th), Y: 25 + r*math.Sin(th)})
		} else {
			sites = append(sites, Point{X: rng.Float64() * 50, Y: rng.Float64() * 50})
		}
	}
	if layout&2 != 0 {
		// Collinear runs: an axis-parallel one (exact ties) and a diagonal.
		y := math.Round(rng.Float64() * 50)
		for x := 5.0; x < 50; x += 5 {
			sites = append(sites, Point{X: x, Y: y})
		}
		for t := 0.1; t < 1; t += 0.2 {
			sites = append(sites, Point{X: 50 * t, Y: 50 * t})
		}
	}
	if layout&4 != 0 && len(sites) > 0 {
		for _, off := range []float64{0, Eps / 2, 3 * Eps, 1e-7, 1e-4, walkMinSep / 2, walkMinSep * 1.01} {
			s := sites[rng.Intn(len(sites))]
			th := rng.Float64() * 2 * math.Pi
			sites = append(sites, Point{X: s.X + off*math.Cos(th), Y: s.Y + off*math.Sin(th)})
		}
	}
	if layout&8 != 0 {
		// A site far outside the bounds.
		sites = append(sites, Point{X: -40 + rng.Float64()*130, Y: 200})
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	return sites
}

// FuzzVoronoiNearest checks the certified walk against a linear scan.
// Probes hug the diagram where the certificate is weakest — every cell
// vertex and edge midpoint, pushed 0..1e-6 off in a fuzzed direction, and
// every edge midpoint moved inward to just past the margin, where the
// certificate starts to hold — plus the sites themselves and a fuzzed
// free probe; hints are arbitrary, -1 and out-of-range values included.
// Every finite probe must get the brute-force answer (lowest index on
// exact ties).
func FuzzVoronoiNearest(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(1), 0, 0.5, 1.0, 25.0, 25.0)
	f.Add(int64(2), uint8(60), uint8(3), -1, 1.0, 0.3, 0.0, 50.0)
	f.Add(int64(3), uint8(30), uint8(5), 1<<40, 0.0, 2.0, 12.5, 37.5)
	f.Add(int64(4), uint8(80), uint8(7), 7, 0.25, 4.0, 1e-7, 49.9999999)
	f.Add(int64(5), uint8(10), uint8(15), -9, 0.9, 5.5, 25.0, 1e-6)
	f.Add(int64(6), uint8(0), uint8(4), 3, 0.1, 0.0, 60.0, -3.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, layout uint8, hint int, push, theta, x, y float64) {
		if math.IsNaN(push) || math.IsInf(push, 0) || math.IsNaN(theta) || math.IsInf(theta, 0) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		sites := walkSites(rng, int(n%96)+1, layout)
		d := Voronoi(sites, Rect(0, 0, 50, 50))
		off := math.Mod(math.Abs(push), 1) * 1e-6
		dir := Vec{X: off * math.Cos(theta), Y: off * math.Sin(theta)}
		check := func(p Point, h int) {
			got := d.NearestFrom(p, h)
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				if got < 0 || got >= len(sites) {
					t.Fatalf("NearestFrom(%v, %d) = %d, want a site index", p, h, got)
				}
				return
			}
			if want := bruteNearest(sites, p, -1); got != want {
				t.Fatalf("NearestFrom(%v, hint %d) = %d (d2 %v), brute = %d (d2 %v)",
					p, h, got, p.Dist2To(sites[got]), want, p.Dist2To(sites[want]))
			}
		}
		hints := []int{hint, -1, len(sites), 0}
		check(Point{X: x, Y: y}, hint)
		for i := range d.Cells {
			c := &d.Cells[i]
			hints[3] = i
			for _, h := range hints {
				check(c.Site, h)
			}
			for k, v := range c.Region {
				w := c.Region[(k+1)%len(c.Region)]
				mid := v.Mid(w)
				// The region is CCW, so its inside is left of v→w.
				if in := (Vec{X: v.Y - w.Y, Y: w.X - v.X}).Unit(); in.Norm() > 0 {
					q := mid.Add(in.Scale(walkMargin + 4*off))
					check(q, i)
					check(q, hint)
				}
				for _, p := range []Point{v, mid} {
					q := p.Add(dir)
					for _, h := range hints {
						check(q, h)
					}
					// The neighbour the walk would step to is a hint too.
					check(q, bruteNearest(sites, p, i))
				}
			}
		}
	})
}
