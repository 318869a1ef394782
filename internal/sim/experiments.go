package sim

import (
	"fmt"
	"sync"
)

// Experiment is one reproducible table or figure series.
type Experiment struct {
	// ID names the artifact: the -figure value of cmd/experiments and the
	// ID of the Table that Run returns.
	ID string
	// InAll marks the paper's evaluation artifacts (Sec. 5), the ones
	// AllFigures and `experiments -figure all` regenerate; the extension
	// sweeps run by ID only.
	InAll bool
	// Run regenerates the table on r, averaging seeded sweeps over runs
	// seeds; fixed-seed experiments ignore runs.
	Run func(r *Runner, runs int) (*Table, error)
}

// Experiments lists every experiment once: the paper's Table 1 and
// figures in paper order, then the extension sweeps.
var Experiments = []Experiment{
	{"table1", true, func(r *Runner, _ int) (*Table, error) { return r.table1Overhead() }},
	{"fig7", true, (*Runner).fig7GradientError},
	{"fig9", true, func(r *Runner, _ int) (*Table, error) { return r.fig9ReportDensity() }},
	{"fig10", true, (*Runner).fig10Maps},
	{"fig11a", true, (*Runner).fig11aAccuracyDensity},
	{"fig11b", true, (*Runner).fig11bAccuracyFailures},
	{"fig12a", true, (*Runner).fig12aHausdorffDensity},
	{"fig12b", true, (*Runner).fig12bHausdorffFailures},
	{"fig13a", true, func(r *Runner, _ int) (*Table, error) { return r.fig13(false) }},
	{"fig13b", true, func(r *Runner, _ int) (*Table, error) { return r.fig13(true) }},
	{"fig14a", true, func(r *Runner, _ int) (*Table, error) { return r.fig14aTrafficDiameter() }},
	{"fig14b", true, func(r *Runner, _ int) (*Table, error) { return r.fig14bTrafficDensity() }},
	{"fig15a", true, func(r *Runner, _ int) (*Table, error) { return r.fig15aCompute() }},
	{"fig15b", true, func(r *Runner, _ int) (*Table, error) { return r.fig15bComputeIsoMap() }},
	{"fig16", true, func(r *Runner, _ int) (*Table, error) { return r.fig16Energy() }},

	{"ext-noise", false, (*Runner).extNoiseSweep},
	{"ext-scope", false, (*Runner).extScopeSweep},
	{"ext-loss", false, func(r *Runner, _ int) (*Table, error) { return r.extLossSweep() }},
	{"ext-monitor", false, func(r *Runner, _ int) (*Table, error) { return r.extMonitorRounds(8) }},
	{"ext-latency", false, func(r *Runner, _ int) (*Table, error) { return r.extLatencySweep() }},
	{"ext-localize", false, (*Runner).extLocalizeSweep},
	{"ext-mac", false, func(r *Runner, _ int) (*Table, error) { return r.extMACSweep() }},
	{"ext-lifetime", false, func(r *Runner, _ int) (*Table, error) { return r.extLifetimeSweep() }},
	{"ext-detect", false, (*Runner).extDetectPolicySweep},
	{"ext-codec", false, (*Runner).extCodecSweep},
	{"ext-faults", false, (*Runner).extFaultSweep},
	{"ext-temporal", false, (*Runner).extTemporalSweep},
}

// AllFigures regenerates the InAll experiments with the given averaging
// runs, in paper order. The generators run concurrently; all protocol
// work inside them executes as jobs on the runner's bounded pool, and the
// tables come back in list order regardless of completion order.
func (r *Runner) AllFigures(runs int) ([]*Table, error) {
	var exps []Experiment
	for _, e := range Experiments {
		if e.InAll {
			exps = append(exps, e)
		}
	}
	out := make([]*Table, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i := range exps {
		wg.Add(1)
		// Generators hold no pool slot themselves — only their cell jobs
		// do — so nested fan-out cannot deadlock the pool.
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = exps[i].Run(r, runs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", exps[i].ID, err)
		}
	}
	return out, nil
}
