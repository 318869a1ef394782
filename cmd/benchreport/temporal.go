package main

import (
	"fmt"
	"os"

	"isomap/internal/sim"
)

// temporalReport is the BENCH_TEMPORAL.json document: the
// traffic-vs-staleness-vs-field-speed grid from Runner.ExtTemporalSweepResults.
// Each cell runs the packet engine over a time-evolving field — full
// rounds (the oracle: every isoline node reports every round) against
// delta rounds (crossing deltas only, sink ages its belief) — so the
// full/delta pairs at equal field speed are directly comparable: same
// deployment, same field trajectory, same fault schedule.
type temporalReport struct {
	Generator string                    `json:"generator"`
	Nodes     int                       `json:"nodes"`
	FieldSide float64                   `json:"fieldSide"`
	Rounds    int                       `json:"roundsPerCell"`
	Runs      int                       `json:"runs"`
	Results   []sim.TemporalPointResult `json:"results"`
}

func runTemporal(out string, runs int, smoke bool, parallel int) error {
	points := sim.DefaultTemporalPoints()
	if smoke {
		points = sim.SmokeTemporalPoints()
		runs = 1
	}
	results, err := sim.NewRunner(parallel).ExtTemporalSweepResults(runs, points)
	if err != nil {
		return err
	}
	// The headline claim this report exists to carry: on the slow drift
	// cells the delta protocol must move measurably fewer data frames than
	// the full-report oracle without giving up tracking accuracy. Guard it
	// here so a regression fails the report instead of silently shipping
	// numbers that undercut the protocol.
	if !smoke {
		if err := checkTemporalClaim(results); err != nil {
			return err
		}
	}
	rep := temporalReport{
		Generator: "cmd/benchreport -kind temporal",
		Nodes:     400,
		FieldSide: 20,
		Rounds:    sim.TemporalRounds,
		Runs:      runs,
		Results:   results,
	}
	if out == "" {
		out = "BENCH_TEMPORAL.json"
	}
	return writeJSON(out, rep)
}

// checkTemporalClaim verifies the slowest-field full/delta pair:
// delta traffic strictly below full traffic at comparable tracking
// error (within 0.05 absolute raster disagreement).
func checkTemporalClaim(results []sim.TemporalPointResult) error {
	var full, delta *sim.TemporalPointResult
	for i := range results {
		r := &results[i]
		if r.Field != "drift" || r.Speed != 0.2 {
			continue
		}
		if r.Delta {
			if delta == nil {
				delta = r
			}
		} else {
			full = r
		}
	}
	if full == nil || delta == nil {
		return fmt.Errorf("temporal sweep missing the slow-drift full/delta pair")
	}
	if delta.DataFramesPerRound >= full.DataFramesPerRound {
		return fmt.Errorf("delta rounds moved %.1f data frames/round, full %.1f: no traffic win",
			delta.DataFramesPerRound, full.DataFramesPerRound)
	}
	if delta.TrackingError > full.TrackingError+0.05 {
		return fmt.Errorf("delta tracking error %.4f exceeds full %.4f by more than 0.05",
			delta.TrackingError, full.TrackingError)
	}
	fmt.Fprintf(os.Stderr,
		"benchreport: temporal claim holds: drift@0.2 frames/round full=%.1f delta=%.1f (%.0f%% saved), trackErr full=%.4f delta=%.4f\n",
		full.DataFramesPerRound, delta.DataFramesPerRound,
		100*(1-delta.DataFramesPerRound/full.DataFramesPerRound),
		full.TrackingError, delta.TrackingError)
	return nil
}
