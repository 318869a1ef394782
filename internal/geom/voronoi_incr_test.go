package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// churnStep perturbs sites for one round: moves a fraction, removes a few,
// appends a few, and occasionally injects exact and near duplicates — the
// report churn profile the incremental path must absorb.
func churnStep(rng *rand.Rand, sites []Point, bounds Polygon) []Point {
	x0, y0, x1, y1 := bounds.BoundingBox()
	out := append([]Point(nil), sites...)
	moved := 0
	for i := range out {
		if rng.Float64() < 0.06 {
			out[i] = Point{
				X: out[i].X + rng.NormFloat64()*0.5,
				Y: out[i].Y + rng.NormFloat64()*0.5,
			}
			moved++
		}
	}
	for len(out) > 0 && rng.Float64() < 0.3 {
		di := rng.Intn(len(out))
		out = append(out[:di], out[di+1:]...)
	}
	for rng.Float64() < 0.4 {
		out = append(out, Point{
			X: x0 + rng.Float64()*(x1-x0),
			Y: y0 + rng.Float64()*(y1-y0),
		})
	}
	if len(out) > 1 && rng.Float64() < 0.25 {
		// Exact duplicate of an existing site.
		out = append(out, out[rng.Intn(len(out))])
	}
	if len(out) > 1 && rng.Float64() < 0.25 {
		// Near duplicate within NearlyEqual range.
		s := out[rng.Intn(len(out))]
		out = append(out, Point{X: s.X + Eps/2, Y: s.Y - Eps/2})
	}
	return out
}

// TestVoronoiIncrementalEquivalence pins the byte-identity contract:
// across random churn sequences, the incremental rebuild equals the full
// indexed construction via DeepEqual (regions, adjacency, horizons).
func TestVoronoiIncrementalEquivalence(t *testing.T) {
	bounds := Rect(0, 0, 40, 40)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sites []Point
		n := 5 + rng.Intn(60)
		x0, y0, x1, y1 := bounds.BoundingBox()
		for i := 0; i < n; i++ {
			sites = append(sites, Point{
				X: x0 + rng.Float64()*(x1-x0),
				Y: y0 + rng.Float64()*(y1-y0),
			})
		}
		prev := VoronoiWithIndex(sites, bounds, nil)
		for round := 0; round < 8; round++ {
			sites = churnStep(rng, sites, bounds)
			diff := prev.DiffSites(sites)
			full := VoronoiWithIndex(sites, bounds, NewNNIndex(sites, bounds))
			incr := VoronoiIncremental(prev, sites, NewNNIndex(sites, bounds), diff)
			if !reflect.DeepEqual(incr, full) {
				t.Fatalf("seed %d round %d: incremental diagram diverges from full rebuild (k=%d, dirty=%d/%d)",
					seed, round, len(sites), diff.DirtyCount, len(sites))
			}
			prev = incr
		}
	}
}

// TestVoronoiIncrementalGridTies exercises exact-tie configurations: a
// regular grid has many probe points equidistant from several sites, the
// worst case for index-based tie-breaks.
func TestVoronoiIncrementalGridTies(t *testing.T) {
	bounds := Rect(0, 0, 10, 10)
	var sites []Point
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			sites = append(sites, Point{X: 1 + 2*float64(c), Y: 1 + 2*float64(r)})
		}
	}
	prev := VoronoiWithIndex(sites, bounds, nil)
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 6; round++ {
		next := append([]Point(nil), sites...)
		// Move one grid site, delete another: stable slots keep exact ties.
		next[rng.Intn(len(next))] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		di := rng.Intn(len(next))
		next = append(next[:di], next[di+1:]...)
		diff := prev.DiffSites(next)
		full := VoronoiWithIndex(next, bounds, NewNNIndex(next, bounds))
		incr := VoronoiIncremental(prev, next, NewNNIndex(next, bounds), diff)
		if !reflect.DeepEqual(incr, full) {
			t.Fatalf("round %d: grid-tie incremental diverges from full rebuild", round)
		}
		sites, prev = next, incr
	}
}

// TestDiffSitesBasics checks the diff classification on hand-built cases.
func TestDiffSitesBasics(t *testing.T) {
	bounds := Rect(0, 0, 10, 10)
	sites := []Point{{X: 2, Y: 2}, {X: 8, Y: 2}, {X: 5, Y: 8}}
	d := Voronoi(sites, bounds)

	same := d.DiffSites(append([]Point(nil), sites...))
	if !same.Identical || same.DirtyCount != 0 || len(same.Deltas) != 0 {
		t.Fatalf("identical sites misdiagnosed: %+v", same)
	}

	moved := append([]Point(nil), sites...)
	moved[1] = Point{X: 8.5, Y: 2.5}
	diff := d.DiffSites(moved)
	if diff.Identical || !diff.Dirty[1] || diff.Stable[1] {
		t.Fatalf("moved slot not dirty: %+v", diff)
	}
	if len(diff.Deltas) != 2 {
		t.Fatalf("deltas = %v, want old+new position", diff.Deltas)
	}

	grown := append(append([]Point(nil), sites...), Point{X: 2 + Eps/2, Y: 2})
	if gd := d.DiffSites(grown); len(gd.Deltas) != 1 || gd.Deltas[0] != grown[3] || !gd.Dirty[3] {
		t.Fatalf("appended slot: %+v, want its site as the one delta and dirty", gd)
	}

	if shrunk := d.DiffSites(sites[:2]); len(shrunk.Deltas) != 1 || shrunk.Deltas[0] != sites[2] {
		t.Fatalf("shrink deltas = %v, want the removed site", shrunk.Deltas)
	}
}

// TestDiffSitesNaiveAlwaysDirty: diagrams built by the naive oracle carry
// infinite horizons, so any delta dirties every cell — correct fallback.
func TestDiffSitesNaiveAlwaysDirty(t *testing.T) {
	bounds := Rect(0, 0, 10, 10)
	sites := []Point{{X: 2, Y: 2}, {X: 8, Y: 8}}
	d := VoronoiNaive(sites, bounds)
	if !math.IsInf(d.Cells[0].horizonD2, 1) {
		t.Fatalf("naive cell horizon = %g, want +Inf", d.Cells[0].horizonD2)
	}
	moved := []Point{{X: 2, Y: 2}, {X: 8, Y: 7}}
	diff := d.DiffSites(moved)
	if diff.DirtyCount != len(moved) {
		t.Fatalf("naive-diagram diff dirty = %d, want all %d", diff.DirtyCount, len(moved))
	}
}

// TestDiffSitesWorkersEquivalence: the fanned-out horizon checks return
// the exact diff the sequential scan does — Dirty slots and DirtyCount
// alike — at any worker width.
func TestDiffSitesWorkersEquivalence(t *testing.T) {
	bounds := Rect(0, 0, 40, 40)
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 6; trial++ {
		k := 200 + rng.Intn(300)
		sites := make([]Point, k)
		for i := range sites {
			sites[i] = Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		}
		prev := Voronoi(sites, bounds)
		next := append([]Point(nil), sites...)
		for i := range next {
			if rng.Float64() < 0.06 {
				next[i].X += rng.NormFloat64() * 0.5
				next[i].Y += rng.NormFloat64() * 0.5
			}
		}
		if trial%3 == 1 {
			next = next[:k-rng.Intn(20)]
		}
		want := prev.DiffSites(next)
		for _, w := range []int{2, 4, 8} {
			got := prev.DiffSitesWorkers(next, w)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d workers=%d: diff diverges from sequential", trial, w)
			}
		}
	}
}
