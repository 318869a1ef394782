package sim

import (
	"fmt"
	"math"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/stats"
)

// Densities used by the density sweeps (normalized to 1 = 2,500 nodes on
// the 50x50 field, as in Sec. 5).
var sweepDensities = []float64{0.16, 0.36, 0.64, 1, 2, 4}

// Field sides for the diameter sweeps of Figs. 14a/15/16 at density 1.
var sweepSides = []float64{20, 35, 50, 70, 90}

// nodesAtDensity returns the node count realizing a normalized density on
// the reference 50x50 field.
func nodesAtDensity(d float64) int { return int(math.Round(d * 2500)) }

// table1Overhead reproduces Table 1: the analytic overhead comparison of
// the five approaches, annotated with the measured generated-report counts
// and network computation at the reference scenario (n = 2,500). The five
// protocol rounds run as independent jobs on the worker pool.
func (r *Runner) table1Overhead() (*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "Overhead comparison of different approaches (analytic + measured at n=2500)",
		Columns: []string{
			"Protocol", "Reports (analytic)", "Computation (analytic)",
			"Deployment", "Reports (measured)", "Network ops (measured)",
		},
	}
	// One job per protocol; the grid and random deployments are cloned
	// from the cache, so the three grid jobs do not rebuild the network.
	cells := []struct {
		grid bool
		run  func(*Env) (Stats, error)
	}{
		{true, func(e *Env) (Stats, error) { st, _, err := e.RunTinyDB(); return st, err }},
		{false, func(e *Env) (Stats, error) { return e.RunEScan() }},
		{true, func(e *Env) (Stats, error) { return e.RunINLR() }},
		{true, func(e *Env) (Stats, error) { return e.RunSuppress() }},
		{false, func(e *Env) (Stats, error) { st, _, err := e.RunIsoMap(); return st, err }},
	}
	measured, err := runJobs(r, len(cells), func(i int) (Stats, error) {
		env, err := r.Build(Scenario{Grid: cells[i].grid, Seed: 1})
		if err != nil {
			return Stats{}, err
		}
		return cells[i].run(env)
	})
	if err != nil {
		return nil, err
	}
	ops := func(st Stats) string { return fmt.Sprintf("%.3g", st.MeanOps*float64(st.Nodes)) }
	t.AddRow("TinyDB", "n", "O(n)", "grid", measured[0].Generated, ops(measured[0]))
	t.AddRow("eScan", "n", "O(n^4)", "any", measured[1].Generated, ops(measured[1]))
	t.AddRow("INLR", "n", "Omega(n^1.5)", "grid", measured[2].Generated, ops(measured[2]))
	t.AddRow("Suppression", "O(n)", "Omega(n*d)", "grid", measured[3].Generated, ops(measured[3]))
	t.AddRow("Iso-Map", "O(sqrt n)", "O(n)", "any", measured[4].Generated, ops(measured[4]))
	return t, nil
}

// fig7GradientError reproduces Fig. 7: the error between the regressed
// gradient direction and the true isoline normal, against the average node
// degree (varied through the radio range).
func (r *Runner) fig7GradientError(runs int) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Gradient direction error vs average node degree",
		Columns: []string{"radio", "avg degree", "mean error (deg)", "p95 error (deg)"},
	}
	radios := []float64{1.1, 1.3, 1.5, 1.8, 2.2, 2.6}
	rows, err := sweepAverage(r, len(radios), runs, func(p int, seed int64) ([]float64, error) {
		env, err := r.Build(Scenario{Radio: radios[p], Seed: seed})
		if err != nil {
			return nil, err
		}
		deg, mean, p95, err := env.gradientErrorStats()
		if err != nil {
			return nil, err
		}
		return []float64{deg, mean, p95}, nil
	})
	if err != nil {
		return nil, err
	}
	for p, radio := range radios {
		t.AddRow(radio, rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

// gradientErrorStats measures the angular error of every isoline node's
// regressed gradient against the true field normal.
func (e *Env) gradientErrorStats() (avgDegree, meanErr, p95Err float64, err error) {
	e.Network.Sense(e.Field)
	reports := core.DetectIsolineNodes(e.Network, e.Query, nil)
	if len(reports) == 0 {
		return 0, 0, 0, fmt.Errorf("sim: no isoline nodes at radio %g", e.Scenario.Radio)
	}
	errsDeg := make([]float64, 0, len(reports))
	for _, r := range reports {
		trueDown := field.GradientAt(e.Field, r.Pos.X, r.Pos.Y).Neg()
		errsDeg = append(errsDeg, geom.Degrees(r.Grad.AngleBetween(trueDown)))
	}
	return e.Network.AverageDegree(), stats.Mean(errsDeg), stats.Percentile(errsDeg, 95), nil
}

// fig9ReportDensity reproduces Fig. 9: the contour map built under two
// in-network filter settings, contrasting received reports and accuracy.
func (r *Runner) fig9ReportDensity() (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Contour regions under different report densities",
		Columns: []string{"filter (sa, sd)", "sink reports", "accuracy"},
	}
	settings := []struct {
		label string
		fc    core.FilterConfig
	}{
		{"off (all reports)", core.FilterConfig{Enabled: false}},
		{"sa=30deg sd=4", core.DefaultFilterConfig()},
		{"sa=45deg sd=8", core.FilterConfig{Enabled: true, MaxAngle: geom.Radians(45), MaxDist: 8}},
	}
	rows, err := runJobs(r, len(settings), func(i int) (Stats, error) {
		fc := settings[i].fc
		env, err := r.Build(Scenario{Seed: 1, Filter: &fc})
		if err != nil {
			return Stats{}, err
		}
		st, _, err := env.RunIsoMap()
		return st, err
	})
	if err != nil {
		return nil, err
	}
	for i, s := range settings {
		t.AddRow(s.label, rows[i].SinkReports, rows[i].Accuracy)
	}
	return t, nil
}

// fig10Maps reproduces Fig. 10: TinyDB and Iso-Map contour maps at
// normalized node densities 4, 1 and 0.16, reporting the received reports
// and accuracy that accompany the paper's rendered maps.
func (r *Runner) fig10Maps(runs int) (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "Contour mapping at densities 4 / 1 / 0.16",
		Columns: []string{"density", "nodes", "TinyDB accuracy", "Iso-Map accuracy", "Iso-Map sink reports"},
	}
	densities := []float64{4, 1, 0.16}
	rows, err := sweepAverage(r, len(densities), runs, func(p int, seed int64) ([]float64, error) {
		n := nodesAtDensity(densities[p])
		gridEnv, err := r.Build(Scenario{Nodes: n, Grid: true, Seed: seed})
		if err != nil {
			return nil, err
		}
		tdb, _, err := gridEnv.RunTinyDB()
		if err != nil {
			return nil, err
		}
		randEnv, err := r.Build(Scenario{Nodes: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		iso, _, err := randEnv.RunIsoMap()
		if err != nil {
			return nil, err
		}
		return []float64{tdb.Accuracy, iso.Accuracy, float64(iso.SinkReports)}, nil
	})
	if err != nil {
		return nil, err
	}
	for p, d := range densities {
		t.AddRow(d, nodesAtDensity(d), rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

// fig11aAccuracyDensity reproduces Fig. 11a: mapping accuracy against node
// density for TinyDB and Iso-Map with two border tolerances.
func (r *Runner) fig11aAccuracyDensity(runs int) (*Table, error) {
	t := &Table{
		ID:      "fig11a",
		Title:   "Mapping accuracy vs node density",
		Columns: []string{"density", "TinyDB", "Iso-Map eps=0.05T", "Iso-Map eps=0.2T"},
	}
	rows, err := sweepAverage(r, len(sweepDensities), runs, func(p int, seed int64) ([]float64, error) {
		return r.accuracyTriple(nodesAtDensity(sweepDensities[p]), 0, seed)
	})
	if err != nil {
		return nil, err
	}
	for p, d := range sweepDensities {
		t.AddRow(d, rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

// fig11bAccuracyFailures reproduces Fig. 11b: mapping accuracy against the
// node-failure ratio.
func (r *Runner) fig11bAccuracyFailures(runs int) (*Table, error) {
	t := &Table{
		ID:      "fig11b",
		Title:   "Mapping accuracy vs node failures",
		Columns: []string{"failure ratio", "TinyDB", "Iso-Map eps=0.05T", "Iso-Map eps=0.2T"},
	}
	fails := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	rows, err := sweepAverage(r, len(fails), runs, func(p int, seed int64) ([]float64, error) {
		return r.accuracyTriple(2500, fails[p], seed)
	})
	if err != nil {
		return nil, err
	}
	for p, fail := range fails {
		t.AddRow(fail, rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

// accuracyTriple runs TinyDB and the two Iso-Map epsilon settings on one
// seed, returning their accuracies. The two Iso-Map runs differ only in
// epsilon, so they share one cached deployment.
func (r *Runner) accuracyTriple(n int, fail float64, seed int64) ([]float64, error) {
	gridEnv, err := r.Build(Scenario{Nodes: n, Grid: true, Seed: seed, FailFraction: fail})
	if err != nil {
		return nil, err
	}
	tdb, _, err := gridEnv.RunTinyDB()
	if err != nil {
		return nil, err
	}
	isoNarrow, err := r.isoMapAccuracy(n, fail, seed, 0.05)
	if err != nil {
		return nil, err
	}
	isoWide, err := r.isoMapAccuracy(n, fail, seed, 0.2)
	if err != nil {
		return nil, err
	}
	return []float64{tdb.Accuracy, isoNarrow, isoWide}, nil
}

func (r *Runner) isoMapAccuracy(n int, fail float64, seed int64, epsFraction float64) (float64, error) {
	env, err := r.Build(Scenario{
		Nodes:        n,
		Seed:         seed,
		FailFraction: fail,
		Epsilon:      epsFraction * 2, // Step = 2
	})
	if err != nil {
		return 0, err
	}
	st, _, err := env.RunIsoMap()
	if err != nil {
		return 0, err
	}
	return st.Accuracy, nil
}

// fig12aHausdorffDensity reproduces Fig. 12a: the Hausdorff distance
// between estimated and true isolines against node density, for Iso-Map on
// random and grid deployments and for TinyDB.
func (r *Runner) fig12aHausdorffDensity(runs int) (*Table, error) {
	t := &Table{
		ID:      "fig12a",
		Title:   "Isoline Hausdorff distance vs node density",
		Columns: []string{"density", "Iso-Map random", "Iso-Map grid", "TinyDB"},
	}
	rows, err := sweepAverage(r, len(sweepDensities), runs, func(p int, seed int64) ([]float64, error) {
		return r.hausdorffTriple(nodesAtDensity(sweepDensities[p]), 0, seed)
	})
	if err != nil {
		return nil, err
	}
	for p, d := range sweepDensities {
		t.AddRow(d, rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

// fig12bHausdorffFailures reproduces Fig. 12b: Hausdorff distance against
// the node-failure ratio.
func (r *Runner) fig12bHausdorffFailures(runs int) (*Table, error) {
	t := &Table{
		ID:      "fig12b",
		Title:   "Isoline Hausdorff distance vs node failures",
		Columns: []string{"failure ratio", "Iso-Map random", "Iso-Map grid", "TinyDB"},
	}
	fails := []float64{0, 0.1, 0.2, 0.3, 0.4}
	rows, err := sweepAverage(r, len(fails), runs, func(p int, seed int64) ([]float64, error) {
		return r.hausdorffTriple(2500, fails[p], seed)
	})
	if err != nil {
		return nil, err
	}
	for p, fail := range fails {
		t.AddRow(fail, rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

// hausdorffTriple runs Iso-Map on random and grid deployments and TinyDB
// on the grid one. The Env reuse contract (each Run* re-senses) lets
// TinyDB run on the same grid Env after Iso-Map instead of rebuilding an
// identical deployment.
func (r *Runner) hausdorffTriple(n int, fail float64, seed int64) ([]float64, error) {
	randEnv, err := r.Build(Scenario{Nodes: n, Seed: seed, FailFraction: fail})
	if err != nil {
		return nil, err
	}
	isoRand, _, err := randEnv.RunIsoMap()
	if err != nil {
		return nil, err
	}
	gridEnv, err := r.Build(Scenario{Nodes: n, Grid: true, Seed: seed, FailFraction: fail})
	if err != nil {
		return nil, err
	}
	isoGrid, _, err := gridEnv.RunIsoMap()
	if err != nil {
		return nil, err
	}
	tdb, _, err := gridEnv.RunTinyDB()
	if err != nil {
		return nil, err
	}
	return []float64{isoRand.MeanHausdorff, isoGrid.MeanHausdorff, tdb.MeanHausdorff}, nil
}

// fig13 reproduces Fig. 13 over a grid of (s_a, s_d) filter settings:
// the number of reports received at the sink (Fig. 13a) or, with
// accuracy set, the mapping accuracy (Fig. 13b).
func (r *Runner) fig13(accuracy bool) (*Table, error) {
	id, title, col := "fig13a", "Sink reports vs filter thresholds", "sink reports"
	if accuracy {
		id, title, col = "fig13b", "Mapping accuracy vs filter thresholds", "accuracy"
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"sa (deg)", "sd", col},
	}
	sas := []float64{0, 15, 30, 45, 60}
	sds := []float64{0, 2, 4, 6, 8}
	// All 25 (sa, sd) cells share one cached deployment and fan out as
	// independent jobs.
	rows, err := runJobs(r, len(sas)*len(sds), func(i int) (Stats, error) {
		fc := core.FilterConfig{Enabled: true, MaxAngle: geom.Radians(sas[i/len(sds)]), MaxDist: sds[i%len(sds)]}
		env, err := r.Build(Scenario{Seed: 1, Filter: &fc})
		if err != nil {
			return Stats{}, err
		}
		st, _, err := env.RunIsoMap()
		return st, err
	})
	if err != nil {
		return nil, err
	}
	for i, st := range rows {
		sa, sd := sas[i/len(sds)], sds[i%len(sds)]
		if accuracy {
			t.AddRow(sa, sd, st.Accuracy)
		} else {
			t.AddRow(sa, sd, st.SinkReports)
		}
	}
	return t, nil
}

// fig14aTrafficDiameter reproduces Fig. 14a: traffic overhead (KB) of
// TinyDB, INLR and Iso-Map against the network diameter at density 1.
func (r *Runner) fig14aTrafficDiameter() (*Table, error) {
	t := &Table{
		ID:      "fig14a",
		Title:   "Traffic overhead (KB) vs network diameter",
		Columns: []string{"field side", "nodes", "diameter (hops)", "TinyDB KB", "INLR KB", "Iso-Map KB"},
	}
	rows, err := runJobs(r, len(sweepSides), func(i int) ([]any, error) {
		return r.trafficRow(sweepSides[i], 1)
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// fig14bTrafficDensity reproduces Fig. 14b: traffic overhead against node
// density on the reference field.
func (r *Runner) fig14bTrafficDensity() (*Table, error) {
	t := &Table{
		ID:      "fig14b",
		Title:   "Traffic overhead (KB) vs node density",
		Columns: []string{"density", "nodes", "diameter (hops)", "TinyDB KB", "INLR KB", "Iso-Map KB"},
	}
	densities := []float64{0.5, 1, 2, 4}
	rows, err := runJobs(r, len(densities), func(i int) ([]any, error) {
		row, err := r.trafficRow(50, densities[i])
		if err != nil {
			return nil, err
		}
		row[0] = densities[i]
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// trafficRow runs the three protocols of Figs. 14-16 on one scenario.
func (r *Runner) trafficRow(side, density float64) ([]any, error) {
	n := int(math.Round(density * side * side))
	gridEnv, err := r.Build(Scenario{Nodes: n, FieldSide: side, Grid: true, Seed: 1})
	if err != nil {
		return nil, err
	}
	tdb, _, err := gridEnv.RunTinyDB()
	if err != nil {
		return nil, err
	}
	inl, err := gridEnv.RunINLR()
	if err != nil {
		return nil, err
	}
	randEnv, err := r.Build(Scenario{Nodes: n, FieldSide: side, Seed: 1})
	if err != nil {
		return nil, err
	}
	iso, _, err := randEnv.RunIsoMap()
	if err != nil {
		return nil, err
	}
	return []any{side, n, tdb.Diameter, tdb.TrafficKB, inl.TrafficKB, iso.TrafficKB}, nil
}

// fig15aCompute reproduces Fig. 15a: per-node computational intensity of
// the three protocols against network size.
func (r *Runner) fig15aCompute() (*Table, error) {
	t := &Table{
		ID:      "fig15a",
		Title:   "Per-node computational intensity vs network size",
		Columns: []string{"field side", "nodes", "TinyDB ops", "INLR ops", "Iso-Map ops"},
	}
	rows, err := runJobs(r, len(sweepSides), func(i int) ([3]Stats, error) {
		return r.threeProtocolStats(sweepSides[i])
	})
	if err != nil {
		return nil, err
	}
	for i, side := range sweepSides {
		t.AddRow(side, rows[i][0].Nodes, rows[i][0].MeanOps, rows[i][1].MeanOps, rows[i][2].MeanOps)
	}
	return t, nil
}

// fig15bComputeIsoMap reproduces Fig. 15b: the amplified Iso-Map view
// showing constant per-node intensity.
func (r *Runner) fig15bComputeIsoMap() (*Table, error) {
	t := &Table{
		ID:      "fig15b",
		Title:   "Iso-Map per-node computational intensity vs network size (amplified)",
		Columns: []string{"field side", "nodes", "Iso-Map ops/node"},
	}
	rows, err := runJobs(r, len(sweepSides), func(i int) (Stats, error) {
		side := sweepSides[i]
		env, err := r.Build(Scenario{Nodes: int(side * side), FieldSide: side, Seed: 1})
		if err != nil {
			return Stats{}, err
		}
		iso, _, err := env.RunIsoMap()
		return iso, err
	})
	if err != nil {
		return nil, err
	}
	for i, side := range sweepSides {
		t.AddRow(side, rows[i].Nodes, rows[i].MeanOps)
	}
	return t, nil
}

// fig16Energy reproduces Fig. 16: per-node energy consumption of the three
// protocols against network size, under the Mica2 model.
func (r *Runner) fig16Energy() (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "Per-node energy (J) vs network size",
		Columns: []string{"field side", "nodes", "TinyDB J", "INLR J", "Iso-Map J"},
	}
	rows, err := runJobs(r, len(sweepSides), func(i int) ([3]Stats, error) {
		return r.threeProtocolStats(sweepSides[i])
	})
	if err != nil {
		return nil, err
	}
	for i, side := range sweepSides {
		t.AddRow(side, rows[i][0].Nodes, rows[i][0].MeanEnergyJ, rows[i][1].MeanEnergyJ, rows[i][2].MeanEnergyJ)
	}
	return t, nil
}

// threeProtocolStats runs TinyDB, INLR and Iso-Map at density 1 on a field
// of the given side, returning their stats in that order.
func (r *Runner) threeProtocolStats(side float64) ([3]Stats, error) {
	var out [3]Stats
	n := int(side * side)
	gridEnv, err := r.Build(Scenario{Nodes: n, FieldSide: side, Grid: true, Seed: 1})
	if err != nil {
		return out, err
	}
	tdb, _, err := gridEnv.RunTinyDB()
	if err != nil {
		return out, err
	}
	inl, err := gridEnv.RunINLR()
	if err != nil {
		return out, err
	}
	randEnv, err := r.Build(Scenario{Nodes: n, FieldSide: side, Seed: 1})
	if err != nil {
		return out, err
	}
	iso, _, err := randEnv.RunIsoMap()
	if err != nil {
		return out, err
	}
	out[0], out[1], out[2] = tdb, inl, iso
	return out, nil
}
