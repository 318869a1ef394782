// Command perfbench is the repository's end-to-end benchmark: it drives
// one monitoring round at a time through the real system — sensing and
// the protocol round (sim.RoundSource), a push to an in-process isomapd
// server over loopback HTTP, the new raster's receipt, then a fixed query
// list — and reports latency, radio cost and map accuracy per workload.
// A separate traced run (-trace 1) attributes the round to its layers.
// Every output is checked as it runs; any mismatch fails the run.
//
//	sh perfbench/run.sh --workload packet-4k --seed 1 --seconds 30 --trace 0
//	sh perfbench/run.sh --workload all --seed 1 --seconds 30
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// provenance identifies what a result was measured on.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Nodes      int    `json:"nodes"`
	Traced     bool   `json:"traced"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
	Conns      int    `json:"connections"`
	Scaling    string `json:"scaling"`
}

// result is one workload run.
type result struct {
	prov      provenance
	correct   bool
	attempted int
	failed    int
	rounds    int
	metrics   []metric
	errs      []error
	notes     []string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(w, fullConfig(*seconds), *seed, *traced == 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(stdout, stderr)
		if !res.correct {
			code = 1
		}
	}
	return code
}

// runWorkload sets the workload up cfg.setups times (setup_s is the
// median), then runs closed-loop rounds for the measured window and
// derives the end-to-end metrics, or with traced the per-layer ones.
func runWorkload(w workload, cfg config, seed int64, traced bool) (*result, error) {
	nproc := runtime.NumCPU()
	nconns := min(w.conns, nproc)
	res := &result{prov: provenance{Workload: w.name, Seed: seed, Traced: traced, Nproc: nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: envOr("PERFBENCH_COMMIT", "unknown"), Source: envOr("PERFBENCH_SOURCE", "unknown"),
		Conns: nconns, Scaling: fmt.Sprintf("none claimed: one process, %d connection(s) on %d core(s)", nconns, nproc)}}
	// step runs and checks round n on r, counting its operations. With a
	// tracer it takes runtime.MemStats around the spans and runs the
	// per-layer probes after the checks.
	step := func(r *rig, tr *tracer, n int) *roundRec {
		rec, errs := r.round(n, tr != nil)
		if len(errs) == 0 {
			errs = r.check(rec, tr != nil)
		}
		if len(errs) == 0 && tr != nil {
			if err := tr.observe(rec); err != nil {
				errs = append(errs, err)
			}
		}
		res.attempted += 1 + len(rec.queries)
		res.failed += len(rec.queryErrs)
		if len(errs) > 0 {
			res.failed++
		}
		res.errs = append(append(res.errs, errs...), rec.queryErrs...)
		return rec
	}
	// setUp builds a rig and runs its cold round, returning the time both
	// took.
	setUp := func(tr *tracer) (*rig, float64, error) {
		t0 := time.Now()
		r, err := newRig(w, cfg, seed, nconns)
		if err != nil {
			return nil, 0, err
		}
		built := time.Since(t0)
		if tr != nil {
			if err := tr.attach(r); err != nil {
				r.close()
				return nil, 0, err
			}
		}
		rec := step(r, tr, 1)
		return r, (built + time.Duration(rec.rootNs)).Seconds(), nil
	}
	var tr *tracer
	if traced {
		tr = newTracer(cfg)
	}
	var (
		r      *rig
		setups []float64
		recs   []*roundRec
	)
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		// Timing of the run starts at round 2; the cold round is set-up.
		res.attempted, res.failed = 0, 0
		var (
			s   float64
			err error
		)
		if r, s, err = setUp(tr); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	res.prov.Nodes = r.nodes()
	minRounds := cfg.minRounds
	if traced {
		minRounds = cfg.detRounds
	}
	start := time.Now()
	for n := 2; len(res.errs) == 0; n++ {
		el := time.Since(start).Seconds()
		// packet-4k measures whole round cycles, so every run times the same
		// rounds however fast the machine is.
		whole := w.kind != "packet" || len(recs)%cfg.cycle == 0
		if el >= cfg.maxSeconds || (el >= cfg.seconds && len(recs) >= minRounds && whole) {
			break
		}
		recs = append(recs, step(r, tr, n))
	}
	res.rounds = len(recs)
	if len(recs) == 0 {
		return nil, fmt.Errorf("cold round failed: %w", errors.Join(res.errs...))
	}
	if traced {
		// The tracing overhead compares the traced rounds with the same
		// rounds run untraced on a fresh set-up of the same seed.
		var plain []float64
		if len(res.errs) == 0 {
			r.close()
			var err error
			if r, _, err = setUp(nil); err != nil {
				return nil, err
			}
			for n := 2; n < 2+len(recs) && len(res.errs) == 0; n++ {
				plain = append(plain, float64(step(r, nil, n).roundNs)/1e6)
			}
		}
		res.correct = len(res.errs) == 0
		if cov := tr.coverage(); res.correct && cov < coverageGate {
			return nil, fmt.Errorf("spans cover %.2f%% of the rounds, under the %.0f%% attribution gate; refusing per-layer numbers", cov, coverageGate)
		}
		res.metrics = tr.metrics(cfg.detRounds, median(plain))
		return res, nil
	}
	res.correct = len(res.errs) == 0
	res.metrics = endToEnd(recs, setups, cfg.detRounds, res.failed, res.attempted)
	if !supports(len(recs), 0.9) {
		res.notes = append(res.notes, fmt.Sprintf("round_ms_p90 rests on %d rounds, fewer than ten beyond it", len(recs)))
	}
	recs = nil // the records hold served bodies and truth rasters: not the server's
	res.metrics = append(res.metrics, metric{"live_heap_mb", r.liveHeapMB(), "MB", 1})
	return res, nil
}

// endToEnd derives the end-to-end metrics of an untraced run but the live
// heap, which runWorkload reads once the records are dropped. Bytes,
// frames and accuracy average over the first detRounds rounds, so they
// repeat exactly for a seed.
func endToEnd(recs []*roundRec, setups []float64, detRounds, failed, attempted int) []metric {
	det := recs[:min(detRounds, len(recs))]
	var round, queries, tx, frames, acc []float64
	var queryWall float64
	for _, rec := range recs {
		round = append(round, float64(rec.roundNs)/1e6)
		for _, q := range rec.queries {
			queries = append(queries, float64(q.ns)/1e3)
		}
		queryWall += float64(rec.queryWallNs) / 1e9
	}
	for _, rec := range det {
		tx = append(tx, float64(rec.txBytes))
		frames = append(frames, float64(rec.frames))
		acc = append(acc, rec.accuracy)
	}
	rate := 0.0
	if queryWall > 0 {
		rate = float64(len(queries)) / queryWall
	}
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"round_ms_p50", median(round), "ms", len(round)},
		{"round_ms_p90", quantile(round, 0.9), "ms", len(round)},
		{"query_us_p50", median(queries), "us", len(queries)},
		{"query_us_p99", quantile(queries, 0.99), "us", len(queries)},
		{"queries_per_s", rate, "1/s", len(queries)},
		{"radio_tx_bytes_per_round", mean(tx), "B", len(tx)},
		{"data_frames_per_round", mean(frames), "frames", len(frames)},
		{"map_accuracy", mean(acc), "fraction", len(acc)},
		{"failed_pct", pct(float64(failed), float64(attempted)), "%", attempted},
	}
}

// reportOmitted lists printed metrics that stay out of the result line
// and so out of BENCHMARK.json's regression gate. failed_pct is 0 on
// every correct run, and the result line carries attempted and failed
// themselves. The query metrics spread 10-27% between runs of one build
// on a shared 2-core machine, more than a third of the largest bound a
// gate may use (25%); the per-layer serve.<surface>_us_p50 metrics carry
// the query path instead.
var reportOmitted = map[string]bool{"failed_pct": true, "query_us_p50": true, "query_us_p99": true, "queries_per_s": true}

// print writes the human-readable report, then the result line.
func (res *result) print(stdout, stderr io.Writer) {
	for i, err := range res.errs {
		if i == 5 {
			fmt.Fprintf(stderr, "perfbench: ... %d more failures\n", len(res.errs)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: FAIL %v\n", err)
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "perfbench: note: %s\n", n)
	}
	prov, _ := json.Marshal(res.prov) // plain struct of strings and numbers
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	fmt.Fprintf(stdout, "%-34s %18s  %-12s %s\n", "metric", "value", "unit", "samples")
	vals := make(map[string]any, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-34s %18.6f  %-12s %d\n", m.name, m.value, m.unit, m.samples)
		if !reportOmitted[m.name] {
			vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	fmt.Fprintf(stdout, "rounds %d, operations %d attempted, %d failed, checks %s\n",
		res.rounds, res.attempted, res.failed, map[bool]string{true: "passed", false: "FAILED"}[res.correct])
	line, _ := json.Marshal(map[string]any{"correct": res.correct, "attempted": res.attempted,
		"failed": res.failed, "metrics": vals}) // finite numbers only: every metric guards its divisions
	fmt.Fprintf(stdout, "%s\n", line)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}
