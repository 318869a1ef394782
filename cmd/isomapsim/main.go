// Command isomapsim runs a single contour-mapping round over the
// synthetic harbor seabed (or a trace loaded with -trace) and prints the
// resulting statistics together with ASCII renderings of the true and
// reconstructed contour maps.
//
// Usage:
//
//	isomapsim [-nodes 2500] [-side 50] [-seed 1] [-fail 0.0] [-grid]
//	          [-sa 30] [-sd 4] [-eps 0.1] [-nofilter] [-res 60]
//	          [-pgm out.pgm] [-trace depth.txt]
//	          [-protocol isomap|tinydb|inlr|escan|suppress]
//	          [-packet] [-loss 0.0] [-burst 0.0] [-crashfrac 0.0]
//	          [-shards 1] [-workers 0]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	          [-roundtrace events.jsonl] [-expvar vars.json] [-diag DIR]
//
// -cpuprofile and -memprofile write pprof profiles of the run (the heap
// profile is captured at exit, after a final GC), so a single large round
// — e.g. -nodes 16000 -packet — can be inspected with `go tool pprof`
// without instrumenting the code.
//
// -roundtrace records the packet-level round as a structured event trace
// (one canonical JSON object per line; "-" writes to stdout) covering
// every frame send/tx/rx/ack/drop, backoff, crash, route repair, sink
// report arrival and the sink-side reconstruction stage timings. It
// implies -packet and runs the trace invariant checker, reporting any
// violation on stderr. -expvar dumps the process expvar variables —
// including the per-phase round counters published after a traced round —
// as JSON. -diag DIR is the one-flag diagnosis bundle: it fills DIR with
// cpu.pprof, heap.pprof, events.jsonl and expvar.json. Any of the
// corresponding flags given explicitly on the command line keeps its own
// value — including an explicit empty value, which disables that output
// (set-ness decides, not the value). With a non-isomap -protocol the
// bundle skips events.jsonl (those protocols have no packet round) with a
// note on stderr. An uncreatable DIR is a hard error.
//
// With -packet the round additionally executes on the packet-level
// CSMA/CA engine (query flood, neighborhood probes, filtered
// convergecast), reporting real phase latencies and link-layer counts.
// -shards above 1 runs that round on the sharded parallel engine (grid
// partition, conservative radio-range lookahead) with -workers
// goroutines per window (0 selects GOMAXPROCS); results and traces are
// byte-identical to the sequential engine at any shard count.
// -loss, -burst and -crashfrac inject faults into that packet round: a
// Bernoulli (or, with -burst > 0, Gilbert–Elliott) lossy channel and a
// fraction of nodes crashing mid-round, with route repair around the
// dead parents.
package main

import (
	"bytes"
	"expvar"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"

	"isomap/internal/baseline/tinydb"
	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/network"
	"isomap/internal/render"
	"isomap/internal/sim"
	rtrace "isomap/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "isomapsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		nodes     = flag.Int("nodes", 2500, "number of sensor nodes")
		side      = flag.Float64("side", 50, "field side length in normalized units")
		seed      = flag.Int64("seed", 1, "deployment seed")
		fail      = flag.Float64("fail", 0, "fraction of failed nodes")
		grid      = flag.Bool("grid", false, "grid deployment instead of uniform random")
		sa        = flag.Float64("sa", 30, "filter angular separation threshold (degrees)")
		sd        = flag.Float64("sd", 4, "filter distance separation threshold (units)")
		eps       = flag.Float64("eps", 0.1, "isoline border tolerance (value units)")
		nofilter  = flag.Bool("nofilter", false, "disable in-network filtering")
		res       = flag.Int("res", 60, "ASCII render resolution (cells per side)")
		pgmPath   = flag.String("pgm", "", "write the estimated map as a PGM image to this path")
		trace     = flag.String("trace", "", "load the field from a depth-trace grid file (see cmd/tracegen)")
		protocol  = flag.String("protocol", "isomap", "protocol to run: isomap, tinydb, inlr, escan, suppress")
		packet    = flag.Bool("packet", false, "also execute the round on the packet-level CSMA/CA engine")
		loss      = flag.Float64("loss", 0, "packet round: channel loss rate in [0, 1)")
		burst     = flag.Float64("burst", 0, "packet round: channel burstiness in [0, 1) (Gilbert–Elliott)")
		crashfrac = flag.Float64("crashfrac", 0, "packet round: fraction of nodes crashing mid-round")
		shards    = flag.Int("shards", 1, "packet round: run on the sharded engine with this many spatial shards")
		workers   = flag.Int("workers", 0, "packet round: sharded engine worker goroutines per window (0 = GOMAXPROCS)")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
		roundtr   = flag.String("roundtrace", "", "write the packet round as a JSONL event trace to this file (\"-\" for stdout; implies -packet)")
		expvarOut = flag.String("expvar", "", "dump expvar variables (incl. traced round counters) as JSON to this file")
		diagDir   = flag.String("diag", "", "diagnosis bundle: write cpu.pprof, heap.pprof, events.jsonl and expvar.json into this directory")
	)
	flag.Parse()
	// explicitly set flags, by name: -diag only fills outputs the user did
	// not set themselves. Checking values instead of flag.Visit would
	// silently re-route an explicit `-cpuprofile ""` (profile disabled)
	// or any other flag explicitly set to its default into the diag dir.
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *diagDir != "" {
		if err := os.MkdirAll(*diagDir, 0o755); err != nil {
			return fmt.Errorf("diag: %w", err)
		}
		if !explicit["cpuprofile"] {
			*cpuprof = filepath.Join(*diagDir, "cpu.pprof")
		}
		if !explicit["memprofile"] {
			*memprof = filepath.Join(*diagDir, "heap.pprof")
		}
		if !explicit["roundtrace"] {
			if *protocol == "isomap" {
				*roundtr = filepath.Join(*diagDir, "events.jsonl")
			} else {
				// The bundle stays useful for other protocols; only the
				// packet-round trace has nothing to record.
				fmt.Fprintf(os.Stderr, "isomapsim: diag: skipping events.jsonl (protocol %q has no packet round)\n", *protocol)
			}
		}
		if !explicit["expvar"] {
			*expvarOut = filepath.Join(*diagDir, "expvar.json")
		}
	}
	if *roundtr != "" {
		if *protocol != "isomap" {
			return fmt.Errorf("-roundtrace traces the packet-level Iso-Map round; protocol %q has none", *protocol)
		}
		*packet = true
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "isomapsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "isomapsim: memprofile:", err)
			}
		}()
	}

	var traceField field.Field
	if *trace != "" {
		tf, err := loadTrace(*trace, *side)
		if err != nil {
			return err
		}
		traceField = tf
	}
	fc := core.FilterConfig{Enabled: !*nofilter, MaxAngle: geom.Radians(*sa), MaxDist: *sd}
	env, err := sim.Build(sim.Scenario{
		Nodes:        *nodes,
		FieldSide:    *side,
		Grid:         *grid,
		Seed:         *seed,
		FailFraction: *fail,
		Epsilon:      *eps,
		Filter:       &fc,
		Trace:        traceField,
	})
	if err != nil {
		return err
	}

	var (
		st       sim.Stats
		m        *contour.Map
		estimate *field.Raster
	)
	switch *protocol {
	case "isomap":
		st, m, err = env.RunIsoMap()
		if err == nil {
			estimate = m.Raster(*res, *res)
		}
	case "tinydb":
		var tres *tinydb.Result
		st, tres, err = env.RunTinyDB()
		if err == nil {
			estimate = tres.Raster(env.Scenario.Levels, *res, *res)
		}
	case "inlr":
		st, err = env.RunINLR()
	case "escan":
		st, err = env.RunEScan()
	case "suppress":
		st, err = env.RunSuppress()
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	if err != nil {
		return err
	}

	fmt.Printf("protocol:         %s\n", st.Protocol)
	fmt.Printf("nodes:            %d (avg degree %.1f, diameter %d hops)\n",
		st.Nodes, st.AvgDegree, st.Diameter)
	fmt.Printf("reports:          %d generated, %d received at sink\n", st.Generated, st.SinkReports)
	fmt.Printf("traffic:          %.2f KB\n", st.TrafficKB)
	fmt.Printf("compute:          %.1f ops/node\n", st.MeanOps)
	fmt.Printf("energy:           %.3g J/node (Mica2 model)\n", st.MeanEnergyJ)
	if st.Accuracy >= 0 {
		fmt.Printf("mapping accuracy: %.1f%%\n", st.Accuracy*100)
	}
	if st.MeanHausdorff >= 0 {
		fmt.Printf("isoline Hausdorff: %.2f units (mean over levels)\n", st.MeanHausdorff)
	}
	fmt.Println()

	if estimate != nil {
		truth := field.ClassifyRaster(env.Field, env.Scenario.Levels, *res, *res)
		fmt.Println(render.SideBySide(truth, estimate, "ground truth", st.Protocol+" estimate"))
	}

	if *pgmPath != "" && m != nil {
		if err := writePGM(*pgmPath, m, env.Scenario.Levels, *res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *pgmPath)
	}

	if *packet && *protocol == "isomap" {
		var plan *faults.Plan
		rcfg := desim.DefaultRadioConfig()
		if *loss > 0 || *crashfrac > 0 {
			kind := faults.ChannelPerfect
			switch {
			case *loss > 0 && *burst > 0:
				kind = faults.ChannelGilbertElliott
			case *loss > 0:
				kind = faults.ChannelBernoulli
			}
			plan, err = faults.New(faults.Config{
				Seed: *seed, Channel: kind, LossRate: *loss, Burstiness: *burst,
				CrashFraction: *crashfrac, CrashStart: 0.05, CrashEnd: 0.6,
				Protect: []network.NodeID{env.Tree.Root()},
			}, env.Network.Len())
			if err != nil {
				return err
			}
			// A deadline keeps frames stuck behind dead parents from
			// riding out the full backoff tail before route repair.
			rcfg.FrameDeadline = 1.5
		}
		var rec *rtrace.Recorder
		if *roundtr != "" {
			rec = rtrace.NewRecorder(traceCapacity(*nodes))
		}
		opt := desim.RoundOptions{Faults: plan, Trace: rec}
		if *shards > 1 {
			opt.Engine = desim.NewShardedEngine(network.NewGridPartition(env.Network, *shards), *workers)
		}
		pr, err := desim.RunRound(env.Tree, env.Field, env.Query, fc, rcfg, opt)
		if err != nil {
			return err
		}
		fmt.Println("packet-level round (CSMA/CA):")
		fmt.Printf("  query flood:     reached %d nodes by t=%.3fs\n", pr.QueryReached, pr.QuerySeconds)
		fmt.Printf("  measurement:     %d isoline nodes, %d reports by t=%.3fs\n",
			pr.IsolineNodes, pr.Generated, pr.MeasureSeconds)
		fmt.Printf("  collection:      %d reports at sink by t=%.3fs\n",
			len(pr.Delivered), pr.CollectSeconds)
		fmt.Printf("  round complete:  t=%.3fs (%d collisions, %d retries, %d drops)\n",
			pr.TotalSeconds, pr.Radio.Collisions, pr.Radio.Retries, pr.Radio.Drops)
		fmt.Printf("  drops by phase:  %d probe replies, %d report batches (re-queued once)\n",
			pr.ReplyDrops, pr.ReportDrops)
		if !plan.Empty() {
			fmt.Printf("  faults:          %d channel losses, %d crashed, %d route repairs, %d severed\n",
				pr.Radio.ChannelLosses, pr.Crashed, pr.Repairs, pr.Severed)
		}
		if rec != nil {
			// Reconstruct the sink map from what the packet round actually
			// delivered, with stage tracing on, so the trace covers the
			// sink side of the round as well.
			sinkValue := env.Network.Node(env.Tree.Root()).Value
			tm := contour.Reconstruct(pr.Delivered, env.Query.Levels, field.BoundsRect(env.Field),
				sinkValue, contour.Options{Regulate: true, Trace: rec})
			tm.Raster(*res, *res)
			if err := emitRoundTrace(rec, *roundtr, rcfg.MaxRetries); err != nil {
				return err
			}
		}
	}
	if *expvarOut != "" {
		if err := writeExpvar(*expvarOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *expvarOut)
	}
	return nil
}

// traceCapacity sizes the event ring for one packet round: per-node event
// volume is bounded in practice by a few hundred events even under heavy
// fault injection, so 1k events/node with a generous floor keeps the ring
// from overwriting (Check refuses truncated traces).
func traceCapacity(nodes int) int {
	c := nodes * 1024
	if c < rtrace.DefaultCapacity {
		c = rtrace.DefaultCapacity
	}
	return c
}

// emitRoundTrace writes the canonical JSONL trace, runs the invariant
// checker, and publishes the per-phase summary as expvar variables.
func emitRoundTrace(rec *rtrace.Recorder, path string, maxRetries int) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("roundtrace: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := rec.WriteJSONL(w); err != nil {
		return fmt.Errorf("roundtrace: %w", err)
	}
	if path != "-" {
		fmt.Printf("wrote %s (%d events)\n", path, rec.Len())
	}
	violations := rec.Check(rtrace.CheckConfig{MaxRetries: maxRetries})
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "isomapsim: trace invariant violated:", v)
	}
	if len(violations) == 0 {
		fmt.Println("trace invariants:  all passed")
	}
	publishSummary(rec.Summarize())
	return nil
}

// publishSummary exposes the traced round's totals through expvar so a
// -expvar dump (or an embedding process serving /debug/vars) sees them.
func publishSummary(s rtrace.Summary) {
	m := new(expvar.Map)
	put := func(k string, v int64) { i := new(expvar.Int); i.Set(v); m.Set(k, i) }
	put("events", s.Events)
	put("sends", s.Sends)
	put("delivered", s.Delivered)
	put("acked", s.Acked)
	put("drops", s.Drops)
	put("crashes", s.Crashes)
	put("reparents", s.Reparents)
	put("sinkReports", s.SinkReports)
	rs := new(expvar.Float)
	rs.Set(s.RoundSeconds)
	m.Set("roundSeconds", rs)
	for _, pb := range s.Phases {
		txb := new(expvar.Int)
		txb.Set(pb.TxBytes)
		m.Set("txBytes_"+pb.Phase, txb)
	}
	expvar.Publish("isomap_round", m)
}

// writeExpvar dumps every published expvar variable as one JSON object.
func writeExpvar(path string) error {
	var b bytes.Buffer
	b.WriteByte('{')
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Quote(kv.Key))
		b.WriteByte(':')
		b.WriteString(kv.Value.String())
	})
	b.WriteString("}\n")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("expvar: %w", err)
	}
	return nil
}

// loadTrace reads a depth-trace grid file over a side x side extent.
func loadTrace(path string, side float64) (*field.GridField, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	defer f.Close()
	g, err := field.ParseGrid(f, 0, 0, side, side)
	if err != nil {
		return nil, fmt.Errorf("parse trace %s: %w", path, err)
	}
	return g, nil
}

func writePGM(path string, m *contour.Map, levels field.Levels, res int) error {
	img := render.PGM(m.Raster(res*4, res*4), levels.Count())
	if err := os.WriteFile(path, []byte(img), 0o644); err != nil {
		return fmt.Errorf("write pgm: %w", err)
	}
	return nil
}
