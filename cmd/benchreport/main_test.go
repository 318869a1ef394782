package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestDispatchUnknownKindLists(t *testing.T) {
	err := dispatch("bogus", options{})
	if err == nil {
		t.Fatal("dispatch(bogus) = nil error, want unknown-kind error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error %q does not name the offending kind", msg)
	}
	for _, name := range kindNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list valid kind %q", msg, name)
		}
	}
}

func TestKindRegistryComplete(t *testing.T) {
	want := []string{"recon", "faults", "desim", "trace", "serve", "temporal"}
	got := kindNames()
	if len(got) != len(want) {
		t.Fatalf("kindNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("kind %d = %q, want %q", i, got[i], want[i])
		}
	}
	for _, k := range kinds {
		if k.run == nil {
			t.Errorf("kind %q has no runner", k.name)
		}
		if k.doc == "" {
			t.Errorf("kind %q has no doc line", k.name)
		}
	}
}

func TestTraceScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced round")
	}
	e, err := runTraceScenario(traceScenario{name: "fault-free", nodes: 400})
	if err != nil {
		t.Fatal(err)
	}
	if e.SinkReports == 0 {
		t.Error("traced round delivered no reports to the sink")
	}
	if e.Summary.Events == 0 || e.Summary.DroppedEvents != 0 {
		t.Errorf("summary events=%d dropped=%d, want >0 and 0", e.Summary.Events, e.Summary.DroppedEvents)
	}
	if len(e.Summary.SinkStages) == 0 {
		t.Error("no sink reconstruction stage timings recorded")
	}
}

func TestServeEngineMeasurement(t *testing.T) {
	e, err := measureServeEngine(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.K != 64 || e.Rounds != 3 {
		t.Fatalf("entry shape: %+v", e)
	}
	if e.IncrementalNs <= 0 || e.FullNs <= 0 || e.Speedup <= 0 {
		t.Fatalf("degenerate timings: %+v", e)
	}
	if e.CellsReusedPct <= 0 {
		t.Errorf("3%% churn reused no cells: %+v", e)
	}
}

func TestServeLoadMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live HTTP server")
	}
	l, err := measureServeLoad(1, 250*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if l.Requests == 0 || l.QueriesPerSec <= 0 {
		t.Fatalf("no load measured: %+v", l)
	}
	if l.P99Micros < l.P50Micros {
		t.Fatalf("p99 %v < p50 %v", l.P99Micros, l.P50Micros)
	}
}

// TestServeCacheMeasurement: the fast-lane phase measures real cold and
// warm passes, every cold request is a counted miss, every warm one a hit,
// and nothing coalesces under a single sequential client. Warm must beat
// cold on the per-request median over interleaved passes: a whole-pass
// throughput ratio over a handful of requests flips whenever outside load
// lands on one pass and not the other.
func TestServeCacheMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live HTTP server")
	}
	const repeats, passes = 2, 5
	c, err := measureServeCache(true, repeats, passes)
	if err != nil {
		t.Fatal(err)
	}
	if c.DistinctPaths == 0 || c.ColdQueriesPerSec <= 0 || c.WarmQueriesPerSec <= 0 {
		t.Fatalf("degenerate cache measurement: %+v", c)
	}
	if c.CacheMisses != int64(c.DistinctPaths*passes) {
		t.Fatalf("misses %d, want one per distinct path per pass (%d)", c.CacheMisses, c.DistinctPaths*passes)
	}
	if c.CacheHits != int64(c.DistinctPaths*repeats*passes) {
		t.Fatalf("hits %d, want %d", c.CacheHits, c.DistinctPaths*repeats*passes)
	}
	if c.WarmP50Micros >= c.ColdP50Micros {
		t.Fatalf("warm requests not faster than cold by median: %+v", c)
	}
	if c.HitRatePct <= 0 || c.HitRatePct >= 100 {
		t.Fatalf("hit rate %v%% out of range", c.HitRatePct)
	}
}

// TestIngestScalingMeasurement: one scaling cell at each ends of the
// width range; parallel output equality is separately pinned by the
// contour oracle tests, here we only need sane timings.
func TestIngestScalingMeasurement(t *testing.T) {
	for _, w := range []int{1, 4} {
		e, err := measureIngestScaling(64, 2, w)
		if err != nil {
			t.Fatal(err)
		}
		if e.Workers != w || e.K != 64 || e.Rounds != 2 || e.NsPerRound <= 0 {
			t.Fatalf("degenerate scaling cell: %+v", e)
		}
	}
}

// TestDesimSmokeSchema runs the desim smoke report end to end and pins
// the schema contract: every field of every row is present in the JSON
// (nulls are deliberate skips, absences are bugs), the scaling table has
// its sequential anchor cell, and derived rates are consistent.
func TestDesimSmokeSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmark cells")
	}
	path := t.TempDir() + "/desim.json"
	if err := runDesim(path, true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"generator", "gomaxprocs", "cores", "hardware_note", "results", "scaling"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("top-level key %q missing", key)
		}
	}
	var results []map[string]json.RawMessage
	if err := json.Unmarshal(doc["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) < 2 {
		t.Fatalf("%d result rows, want the 1k round and the scheduler microbenchmark", len(results))
	}
	rowKeys := []string{"benchmark", "n", "ns_per_op", "allocs_per_op", "events",
		"events_per_sec", "ns_per_event", "peak_queue_depth",
		"naive_ns_per_op", "naive_allocs_per_op", "speedup", "alloc_ratio"}
	for i, row := range results {
		for _, key := range rowKeys {
			if _, ok := row[key]; !ok {
				t.Errorf("results[%d] missing key %q", i, key)
			}
		}
	}
	var parsed desimReport
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	for _, e := range parsed.Results {
		if e.Benchmark == "EngineSchedule" && e.N != nil {
			t.Error("scheduler microbenchmark has a deployment size")
		}
		if e.Benchmark == "FullRound" {
			if e.N == nil || e.Events == nil || e.NsPerEvent == nil {
				t.Fatalf("FullRound row skips core fields: %+v", e)
			}
			if *e.NsPerEvent <= 0 || e.NsPerOp <= 0 {
				t.Errorf("non-positive timing in %+v", e)
			}
		}
	}
	if len(parsed.Scaling) == 0 {
		t.Fatal("smoke report has no scaling cells")
	}
	anchor := false
	for _, s := range parsed.Scaling {
		if s.MsPerRound <= 0 || s.Speedup <= 0 {
			t.Errorf("degenerate scaling cell %+v", s)
		}
		if s.Shards == 1 && s.Procs == 1 {
			anchor = true
			if s.Speedup != 1 {
				t.Errorf("sequential anchor cell speedup %v, want 1", s.Speedup)
			}
		}
	}
	if !anchor {
		t.Error("scaling table lacks the shards=1, procs=1 anchor cell")
	}
	if got := runtime.GOMAXPROCS(0); got != parsed.GoMaxProcs {
		t.Errorf("GOMAXPROCS left at %d after the scaling sweep, want restored to %d", got, parsed.GoMaxProcs)
	}
}
