package sim

import (
	"isomap/internal/baseline/inlr"
	"isomap/internal/baseline/tinydb"
	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/energy"
	"isomap/internal/field"
	"isomap/internal/metrics"
)

// The extension experiments go beyond the paper's figures: they quantify
// the sensitivity knobs the paper mentions but does not sweep (sensing
// noise, the k-hop regression scope, an imperfect link layer) and the
// continuous-monitoring mode of its future work.

// extNoiseSweep measures mapping accuracy and received reports against
// Gaussian sensing noise. The border-region test of Definition 3.1
// compares readings against isolevels directly, so noise first inflates
// the isoline-node population and then corrupts the map.
func (r *Runner) extNoiseSweep(runs int) (*Table, error) {
	t := &Table{
		ID:      "ext-noise",
		Title:   "Iso-Map vs sensing noise (sigma in meters)",
		Columns: []string{"sigma", "generated", "sink reports", "accuracy"},
	}
	sigmas := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}
	rows, err := sweepAverage(r, len(sigmas), runs, func(p int, seed int64) ([]float64, error) {
		env, err := r.Build(Scenario{Seed: seed})
		if err != nil {
			return nil, err
		}
		env.Network.SenseWithNoise(env.Field, sigmas[p], seed+100)
		res, err := core.RunSensed(env.Tree, env.Query, *env.Scenario.Filter)
		if err != nil {
			return nil, err
		}
		m := contour.Reconstruct(res.Reports, env.Query.Levels,
			field.BoundsRect(env.Field), res.SinkValue, contour.DefaultOptions())
		acc := field.Agreement(env.truthRaster(), env.estRaster(m))
		return []float64{float64(res.Generated), float64(len(res.Reports)), acc}, nil
	})
	if err != nil {
		return nil, err
	}
	for p, sigma := range sigmas {
		t.AddRow(sigma, rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

// extScopeSweep measures the k-hop regression scope on a sparse
// deployment: gradient precision against local traffic cost (Sec. 3.3's
// adjustable query scope).
func (r *Runner) extScopeSweep(runs int) (*Table, error) {
	t := &Table{
		ID:      "ext-scope",
		Title:   "Regression scope k (sparse deployment, density 0.36)",
		Columns: []string{"k hops", "mean grad error (deg)", "accuracy", "traffic KB"},
	}
	scopes := []int{1, 2, 3}
	rows, err := sweepAverage(r, len(scopes), runs, func(p int, seed int64) ([]float64, error) {
		env, err := r.Build(Scenario{Nodes: nodesAtDensity(0.36), Seed: seed})
		if err != nil {
			return nil, err
		}
		env.Query.HopScope = scopes[p]
		_, meanErr, _, err := env.gradientErrorStats()
		if err != nil {
			return nil, err
		}
		st, _, err := env.RunIsoMap()
		if err != nil {
			return nil, err
		}
		return []float64{meanErr, st.Accuracy, st.TrafficKB}, nil
	})
	if err != nil {
		return nil, err
	}
	for p, k := range scopes {
		t.AddRow(k, rows[p][0], rows[p][1], rows[p][2])
	}
	return t, nil
}

// extLossSweep recomputes Fig. 16's per-node energy under an imperfect
// link layer with ARQ retransmissions.
func (r *Runner) extLossSweep() (*Table, error) {
	t := &Table{
		ID:      "ext-loss",
		Title:   "Per-node energy (J) vs link loss rate, n=2500",
		Columns: []string{"loss rate", "TinyDB J", "INLR J", "Iso-Map J"},
	}
	counters, err := r.lossCounters()
	if err != nil {
		return nil, err
	}
	for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
		lm, err := energy.NewLinkModel(loss)
		if err != nil {
			return nil, err
		}
		t.AddRow(loss,
			energy.MeanNodeJoulesWithLoss(counters[0], lm),
			energy.MeanNodeJoulesWithLoss(counters[1], lm),
			energy.MeanNodeJoulesWithLoss(counters[2], lm))
	}
	return t, nil
}

// lossCounters runs the Fig. 16 trio once at the reference size as three
// pool jobs and returns their raw counters for energy post-processing.
func (r *Runner) lossCounters() ([3]*metrics.Counters, error) {
	var out [3]*metrics.Counters
	counters, err := runJobs(r, 3, func(i int) (*metrics.Counters, error) {
		env, err := r.Build(Scenario{Grid: i != 2, Seed: 1})
		if err != nil {
			return nil, err
		}
		switch i {
		case 0:
			res, err := tinydb.Run(env.Tree, env.Field)
			if err != nil {
				return nil, err
			}
			return res.Counters, nil
		case 1:
			res, err := inlr.Run(env.Tree, env.Field,
				inlr.DefaultConfig(env.Scenario.Levels.Step, env.nodeSpacing()))
			if err != nil {
				return nil, err
			}
			return res.Counters, nil
		default:
			res, err := core.Run(env.Tree, env.Field, env.Query, *env.Scenario.Filter)
			if err != nil {
				return nil, err
			}
			return res.Counters, nil
		}
	})
	if err != nil {
		return out, err
	}
	copy(out[:], counters)
	return out, nil
}

// extMonitorRounds traces a continuous-monitoring session over the silting
// seabed on the packet engine, with the delta-report protocol and with
// full reports every round, reporting per-round data frames and
// transmitted volume. Rounds are spaced monitorTimeStep apart: delta
// reporting is the win when the field drifts slowly relative to the
// monitoring period (fast change re-reports everything anyway). The two
// sessions (delta and full-report) run as independent jobs over their own
// Envs.
func (r *Runner) extMonitorRounds(rounds int) (*Table, error) {
	const monitorTimeStep = 0.25
	if rounds < 1 {
		rounds = 8
	}
	t := &Table{
		ID:      "ext-monitor",
		Title:   "Continuous monitoring of the silting route (dt=0.25): delta vs full-report packet rounds",
		Columns: []string{"t", "data frames (delta)", "tx KB (delta)", "data frames (full)", "tx KB (full)"},
	}
	sessions, err := runJobs(r, 2, func(i int) ([]*RoundData, error) {
		env, err := r.Build(Scenario{Seed: 7})
		if err != nil {
			return nil, err
		}
		// The delta session ages its belief like ext-temporal's aged
		// cells; the full-report session is the oracle it is measured
		// against.
		rs := &RoundSource{Env: env, Dt: monitorTimeStep}
		if i == 0 {
			rs.Delta, rs.DeltaExpiry = true, 8
		} else {
			rs.PacketRounds = true
		}
		out := make([]*RoundData, rounds)
		for k := range out {
			if out[k], err = rs.Next(); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	delta, full := sessions[0], sessions[1]
	for i := range delta {
		t.AddRow(delta[i].T,
			delta[i].DataFrames, float64(delta[i].TxBytes)/1024,
			full[i].DataFrames, float64(full[i].TxBytes)/1024)
	}
	return t, nil
}
