package geom_test

import (
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/sim"
)

// pushQueryLevels returns the isoposition sets of the push-query
// workload's level diagrams, the maps TestRasterDigest pins: 16k nodes
// (seed 1), suppression filter off, the silting seabed at t = 1, 1.5 and
// 2; per round, one site set per isolevel.
func pushQueryLevels(t *testing.T) ([][][]geom.Point, geom.Polygon) {
	t.Helper()
	env, err := sim.NewRunner(1).Build(sim.Scenario{Nodes: 16000, Seed: 1, Filter: &core.FilterConfig{Enabled: false}})
	if err != nil {
		t.Fatal(err)
	}
	dyn := field.DefaultSilting(env.Field)
	var rounds [][][]geom.Point
	for _, at := range []float64{1, 1.5, 2} {
		res, err := core.Run(env.Tree, dyn.At(at), env.Query, *env.Scenario.Filter)
		if err != nil {
			t.Fatal(err)
		}
		levels := make([][]geom.Point, env.Scenario.Levels.Count())
		for _, r := range res.Reports {
			if r.LevelIndex >= 0 && r.LevelIndex < len(levels) {
				levels[r.LevelIndex] = append(levels[r.LevelIndex], r.Pos)
			}
		}
		rounds = append(rounds, levels)
	}
	return rounds, field.BoundsRect(env.Field)
}

// TestVoronoiPushQueryLevels compares every push-query level diagram with
// the naive oracle and requires at least as many certified cells per
// round as the half-plane clip loop that built them before (counted on
// that construction: 912, 964 and 934 of 916, 968 and 940 cells; the dual
// certifies the same counts).
func TestVoronoiPushQueryLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16k-node deployment")
	}
	rounds, bounds := pushQueryLevels(t)
	floor := []int{912, 964, 934}
	for r, levels := range rounds {
		certified, cells := 0, 0
		for _, sites := range levels {
			geom.CheckMatchesNaive(t, "push-query", sites, bounds)
			certified += geom.CertifiedCells(geom.Voronoi(sites, bounds))
			cells += len(sites)
		}
		t.Logf("round %d: %d of %d cells certified", r, certified, cells)
		if certified < floor[r] {
			t.Errorf("round %d: %d of %d cells certified, want at least %d", r, certified, cells, floor[r])
		}
	}
}
