// Command benchreport writes the repository's deterministic, count-based
// claim reports as machine-readable JSON. Timing lives elsewhere: the
// end-to-end round in perfbench, layer microbenchmarks in `go test -bench`.
//
// -kind faults (the default, emitting BENCH_FAULTS.json) runs the
// fault-injection sweep (Runner.ExtFaultSweepResults): Iso-Map's packet-level
// round under lossy/bursty channels and mid-round node crashes, reporting
// delivery ratio, retry/energy overhead and map fidelity against the
// fault-free round. -smoke shrinks the sweep to a single cell and one seed
// for CI.
//
// -kind temporal (emitting BENCH_TEMPORAL.json) runs the temporal
// monitoring sweep (Runner.ExtTemporalSweepResults): seeded time-evolving
// fields tracked over multi-round packet-level monitoring, full-report
// rounds against the delta-report protocol, reporting per-round traffic,
// tracking error against the moving ground truth, and sink-side belief
// staleness across field speeds. The report fails if the slow-drift
// delta cell does not beat its full-report pair on traffic at
// comparable tracking error. -smoke shrinks it to one delta cell for
// CI.
//
// Unknown -kind values exit non-zero listing the valid kinds.
//
// Usage:
//
//	benchreport [-kind faults|temporal] [-out FILE] [-runs 3] [-smoke] [-parallel N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"isomap/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// options carries the parsed flag values into a kind runner.
type options struct {
	out      string
	runs     int
	smoke    bool
	parallel int
}

// kindSpec registers one report kind. The registry is the single source
// of truth: dispatch, the usage string and the unknown-kind error all
// derive from it.
type kindSpec struct {
	name string
	doc  string
	run  func(o options) error
}

var kinds = []kindSpec{
	{"faults", "fault-injection sweep: delivery, overhead, map fidelity (BENCH_FAULTS.json)",
		func(o options) error { return runFaults(o.out, o.runs, o.smoke, o.parallel) }},
	{"temporal", "evolving-field monitoring: full-report vs delta traffic, tracking error, staleness (BENCH_TEMPORAL.json)",
		func(o options) error { return runTemporal(o.out, o.runs, o.smoke, o.parallel) }},
}

// kindNames returns the registered kind names in registration order.
func kindNames() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return names
}

// dispatch resolves and runs one report kind; unknown names produce a
// non-nil error listing every valid kind.
func dispatch(kind string, o options) error {
	for _, k := range kinds {
		if k.name == kind {
			return k.run(o)
		}
	}
	return fmt.Errorf("unknown -kind %q (valid kinds: %s)", kind, strings.Join(kindNames(), ", "))
}

func run() error {
	var (
		out      = flag.String("out", "", "output JSON path (- for stdout; default BENCH_<KIND>.json)")
		kind     = flag.String("kind", "faults", "report kind: "+strings.Join(kindNames(), ", "))
		runs     = flag.Int("runs", 3, "random-seed repetitions per sweep point (faults, temporal)")
		smoke    = flag.Bool("smoke", false, "shrunken run for CI (faults, temporal)")
		parallel = flag.Int("parallel", 0, "sweep worker-pool width, 0 = GOMAXPROCS (faults, temporal); output is identical at any width")
	)
	flag.Parse()
	return dispatch(*kind, options{out: *out, runs: *runs, smoke: *smoke, parallel: *parallel})
}

// faultsReport is the BENCH_FAULTS.json document.
type faultsReport struct {
	Generator string                 `json:"generator"`
	Nodes     int                    `json:"nodes"`
	FieldSide float64                `json:"fieldSide"`
	Runs      int                    `json:"runs"`
	Results   []sim.FaultPointResult `json:"results"`
}

func runFaults(out string, runs int, smoke bool, parallel int) error {
	points := sim.DefaultFaultPoints()
	if smoke {
		points = sim.SmokeFaultPoints()
		runs = 1
	}
	results, err := sim.NewRunner(parallel).ExtFaultSweepResults(runs, points)
	if err != nil {
		return err
	}
	rep := faultsReport{
		Generator: "cmd/benchreport -kind faults",
		Nodes:     400,
		FieldSide: 20,
		Runs:      runs,
		Results:   results,
	}
	if out == "" {
		out = "BENCH_FAULTS.json"
	}
	return writeJSON(out, rep)
}

// writeJSON marshals doc with indentation to path, or stdout for "-".
func writeJSON(path string, doc any) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
