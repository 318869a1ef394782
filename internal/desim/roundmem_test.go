package desim

import (
	"math"
	"math/rand"
	"testing"

	"isomap/internal/core"
	"isomap/internal/geom"
	"isomap/internal/network"
)

// TestSeenSetMatchesMap checks the shard dedup against what it replaced,
// one map[core.Report]bool per node: over random (node, report) streams
// dense in repeats, identity collisions (same node, source, level and
// retire flag, other values), NaN fields and signed zeros, every add must
// answer as the map's lookup-then-insert did.
func TestSeenSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2, math.NaN(), math.Inf(1)}
	pick := func() float64 { return floats[rng.Intn(len(floats))] }
	var s seenSet
	maps := make(map[network.NodeID]map[core.Report]bool)
	var hits, misses int
	for i := 0; i < 200000; i++ {
		at := network.NodeID(rng.Intn(40))
		r := core.Report{
			Level:      pick(),
			LevelIndex: rng.Intn(3),
			Pos:        geom.Point{X: pick(), Y: pick()},
			Grad:       geom.Vec{X: pick(), Y: 1},
			Source:     network.NodeID(rng.Intn(20)),
			Retire:     rng.Intn(4) == 0,
		}
		if maps[at] == nil {
			maps[at] = make(map[core.Report]bool)
		}
		want := !maps[at][r]
		maps[at][r] = true
		if got := s.add(at, &r); got != want {
			t.Fatalf("add %d (node %d, %+v) = %v, map says %v", i, at, r, got, want)
		}
		if want {
			misses++
		} else {
			hits++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("stream exercised %d hits and %d misses, want both", hits, misses)
	}
}

// TestBlockGrowKeepsContents checks the carving allocator: slices grown
// through one block keep their elements and never share backing arrays.
func TestBlockGrowKeepsContents(t *testing.T) {
	var b block[int]
	rng := rand.New(rand.NewSource(5))
	slices := make([][]int, 50)
	want := make([][]int, 50)
	for i := 0; i < 20000; i++ {
		k := rng.Intn(len(slices))
		extra := 1 + rng.Intn(3)
		slices[k] = b.grow(slices[k], extra)
		for j := 0; j < extra; j++ {
			slices[k] = append(slices[k], i)
			want[k] = append(want[k], i)
		}
	}
	for k := range slices {
		if len(slices[k]) != len(want[k]) {
			t.Fatalf("slice %d: len %d, want %d", k, len(slices[k]), len(want[k]))
		}
		for j := range want[k] {
			if slices[k][j] != want[k][j] {
				t.Fatalf("slice %d element %d = %d, want %d", k, j, slices[k][j], want[k][j])
			}
		}
	}
}
