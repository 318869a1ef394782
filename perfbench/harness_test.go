package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// heldOutSeed is never used while tuning the benchmark (tuning runs use
// seeds 1 to 40): the test checks the harness on inputs its design did
// not see.
const heldOutSeed = 4242

// tinyConfig shrinks every workload to a few hundred nodes and a dozen
// rounds, with every check and the oracle running often.
func tinyConfig() config {
	return config{seconds: 0.1, maxSeconds: 60, minRounds: 12, detRounds: 10, setups: 2,
		cycle: 10, nodes: 400, batches: 5, oracleEvery: 3, recorderCap: 1 << 18}
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func runTiny(t *testing.T, w workload, traced bool) map[string]metric {
	t.Helper()
	res, err := runWorkload(w, tinyConfig(), heldOutSeed, traced)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if !res.correct || res.failed != 0 || len(res.errs) != 0 {
		t.Fatalf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.failed, res.attempted, res.errs)
	}
	out := make(map[string]metric, len(res.metrics))
	for _, m := range res.metrics {
		out[m.name] = m
	}
	return out
}

// wantMetrics asserts got holds exactly the named metrics, each with its
// unit.
func wantMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.unit != w.Unit:
			t.Errorf("metric %s: unit %q, want %q", w.Name, m.unit, w.Unit)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(names), len(workloads))
	}
}

// TestHeldOutSeed runs every workload twice untraced and twice traced on
// the held-out seed: every metric is present with its unit, every check
// passes, and the deterministic counts repeat exactly.
func TestHeldOutSeed(t *testing.T) {
	s := readSpec(t)
	endToEnd := append(slices.Clone(s.EndToEnd), specMetric{"failed_pct", "%"},
		specMetric{"query_us_p50", "us"}, specMetric{"query_us_p99", "us"}, specMetric{"queries_per_s", "1/s"})
	for _, m := range s.EndToEnd {
		if reportOmitted[m.Name] {
			t.Errorf("%s is in BENCHMARK.json but left out of the result line", m.Name)
		}
	}
	repeat := []string{"radio_tx_bytes_per_round", "data_frames_per_round", "map_accuracy"}
	repeatTraced := []string{"desim.events_per_round", "desim.measure.tx_bytes", "desim.delta.crossings",
		"monitor.belief_reports", "contour.reports", "contour.cells_reused_pct"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := runTiny(t, w, false), runTiny(t, w, false)
			wantMetrics(t, a, endToEnd)
			for _, name := range repeat {
				if a[name].value != b[name].value {
					t.Errorf("%s differs across runs of one seed: %v vs %v", name, a[name].value, b[name].value)
				}
			}
			ta, tb := runTiny(t, w, true), runTiny(t, w, true)
			wantMetrics(t, ta, s.PerLayer)
			for _, name := range repeatTraced {
				if ta[name].value != tb[name].value {
					t.Errorf("%s differs across traced runs of one seed: %v vs %v", name, ta[name].value, tb[name].value)
				}
			}
			if cov := ta["trace.coverage_pct"].value; cov < coverageGate {
				t.Errorf("trace.coverage_pct = %.2f, under the %.0f%% gate", cov, coverageGate)
			}
			if w.kind != "push" && ta["desim.events_per_round"].value == 0 {
				t.Errorf("packet workload traced no desim events")
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
	if supports(99, 0.9) || !supports(100, 0.9) {
		t.Error("p90 needs 100 samples for ten beyond it")
	}
}
