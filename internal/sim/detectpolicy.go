package sim

import (
	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/field"
)

// extDetectPolicySweep compares the paper's Definition 3.1 detection (the
// epsilon border band) against the edge-based policy of the isoline-
// aggregation lineage across densities: generated reports, sink reports
// and mapping accuracy.
func (r *Runner) extDetectPolicySweep(runs int) (*Table, error) {
	t := &Table{
		ID:    "ext-detect",
		Title: "Detection policy: Def. 3.1 (eps band) vs edge-based election",
		Columns: []string{
			"density", "gen (3.1)", "sink (3.1)", "acc (3.1)",
			"gen (edge)", "sink (edge)", "acc (edge)",
		},
	}
	densities := []float64{0.16, 0.36, 1, 4}
	rows, err := sweepAverage(r, len(densities), runs, func(p int, seed int64) ([]float64, error) {
		return r.detectPolicyRow(nodesAtDensity(densities[p]), seed)
	})
	if err != nil {
		return nil, err
	}
	for p, d := range densities {
		t.AddRow(d, rows[p][0], rows[p][1], rows[p][2], rows[p][3], rows[p][4], rows[p][5])
	}
	return t, nil
}

func (r *Runner) detectPolicyRow(n int, seed int64) ([]float64, error) {
	env, err := r.Build(Scenario{Nodes: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	env.Network.Sense(env.Field)
	truth := env.truthRaster()

	evaluate := func(detect func() []core.Report) (gen, sink, acc float64) {
		generated := detect()
		routableReports := routable(env, generated)
		delivered := core.DeliverReports(env.Tree, routableReports, *env.Scenario.Filter, nil)
		sinkValue := env.Network.Node(env.Tree.Root()).Value
		m := contour.Reconstruct(delivered, env.Query.Levels,
			field.BoundsRect(env.Field), sinkValue, contour.DefaultOptions())
		return float64(len(generated)), float64(len(delivered)),
			field.Agreement(truth, env.estRaster(m))
	}

	g1, s1, a1 := evaluate(func() []core.Report {
		return core.DetectIsolineNodes(env.Network, env.Query, nil)
	})
	g2, s2, a2 := evaluate(func() []core.Report {
		return core.DetectIsolineNodesEdgeBased(env.Network, env.Query, nil)
	})
	return []float64{g1, s1, a1, g2, s2, a2}, nil
}
