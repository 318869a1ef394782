package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/faults"
	"isomap/internal/monitor"
	"isomap/internal/network"
	"isomap/internal/sim"
	"isomap/internal/trace"
)

// coverageGate is the least share of each round's root span its child
// spans must cover before per-layer numbers are written.
const coverageGate = 95.0

// phases are the desim protocol phases the radio split is reported for.
var phases = [...]string{"query", "measure", "collect", "link"}

// stages are the contour stages the traced shadow engine splits an
// update into.
var stages = [...]string{"voronoi", "chords", "regulate"}

// serveCounters are the isomapd expvar counters read per round.
var serveCounters = [...]string{"cache_hits", "cache_misses", "cache_evictions",
	"singleflight_coalesced", "rasters_shed", "not_modified", "queries"}

// span is one timed interval of a traced round: the root span "round", or
// one of its children, timed on connection conn.
type span struct {
	name string
	conn int
	ns   int64
}

// layerRound is one traced round's per-layer record. Its spans are the
// round's timings: the root first, then the children in the round's
// order.
type layerRound struct {
	rec           *roundRec
	spans         []span
	events        int64
	txBytes, mJ   [len(phases)]float64
	collisions    float64
	retries       float64
	backoffs      float64
	drops         float64
	reparents     float64
	sinkDelivered float64
	generated     float64
	stageNs       [len(stages)]int64
	stats         contour.IncrementalStats // this round's shadow-engine work
	counters      map[string]float64       // this round's serve counter deltas
}

// tracer gathers the traced run's per-layer split. All of its work runs
// between rounds, outside every timed span: a replica packet round
// through the public desim round functions with a trace.Recorder (in
// delta mode with its own DeltaState and AgedMap), a second shadow engine
// with Options.Trace for the stage split, and /debug/vars deltas for the
// serve counters. runtime.MemStats around the spans is taken by rig.round.
type tracer struct {
	r        *rig
	rec      *trace.Recorder
	ds       *desim.DeltaState
	aged     *monitor.AgedMap
	stageRec *trace.Recorder
	staged   *contour.Incremental
	stats    contour.IncrementalStats
	vars     map[string]float64
	rounds   []layerRound
}

func newTracer(cfg config) *tracer {
	return &tracer{rec: trace.NewRecorder(cfg.recorderCap), stageRec: trace.NewRecorder(1 << 12)}
}

// attach points the tracer at a freshly set-up rig, before its first
// round, dropping everything recorded on an earlier one.
func (t *tracer) attach(r *rig) error {
	t.r, t.rounds, t.stats = r, nil, contour.IncrementalStats{}
	t.ds, t.aged = nil, nil
	if r.w.kind == "delta" {
		ds, err := desim.NewDeltaState(r.env.Network.Len(), desim.DeltaConfig{GradAngle: r.src.DeltaGradAngle})
		if err != nil {
			return err
		}
		aged, err := monitor.NewAgedMap(monitor.AgedConfig{ExpiryRounds: r.src.DeltaExpiry})
		if err != nil {
			return err
		}
		t.ds, t.aged = ds, aged
	}
	opts := r.opts
	opts.Trace = t.stageRec
	t.staged = contour.NewIncremental(r.env.Scenario.Levels, r.bounds, opts)
	vars, err := t.readVars()
	t.vars = vars
	return err
}

// observe runs the per-layer probes for one checked round. Round 1 (the
// cold round) only advances the replicas.
func (t *tracer) observe(rec *roundRec) error {
	lr := layerRound{rec: rec, spans: spans(rec)}
	if rec.rd != nil {
		if err := t.replica(rec.rd, &lr); err != nil {
			return err
		}
	}
	t.stageRec.Reset()
	t.staged.Update(rec.reports, rec.sink)
	if err := contour.EquivalentRaster(t.staged.Raster(rasterRes, rasterRes), t.r.shadow.Raster(rasterRes, rasterRes)); err != nil {
		return fmt.Errorf("round %d: traced shadow engine differs from the untraced one: %w", rec.n, err)
	}
	for _, st := range t.stageRec.Summarize().SinkStages {
		for i, name := range stages {
			if st.Stage == name {
				lr.stageNs[i] += st.Nanos
			}
		}
	}
	st := t.r.shadow.Stats()
	lr.stats = contour.IncrementalStats{
		CellsReused:             st.CellsReused - t.stats.CellsReused,
		CellsRecomputed:         st.CellsRecomputed - t.stats.CellsRecomputed,
		RasterCellsCopied:       st.RasterCellsCopied - t.stats.RasterCellsCopied,
		RasterCellsReclassified: st.RasterCellsReclassified - t.stats.RasterCellsReclassified,
	}
	t.stats = st
	vars, err := t.readVars()
	if err != nil {
		return err
	}
	lr.counters = make(map[string]float64, len(vars))
	for k, v := range vars {
		lr.counters[k] = v - t.vars[k]
	}
	t.vars = vars
	if rec.n > 1 {
		t.rounds = append(t.rounds, lr)
	}
	return nil
}

// faultPlan rebuilds the fault plan and radio configuration
// sim.RoundSource runs a round under, from its documented defaults: a
// fresh plan seeded by the round number for faulted rounds (5% Bernoulli
// loss, 5% of the nodes crashing between 0.05 s and 0.6 s, the sink
// protected, a 1.5 s frame deadline), the default radio otherwise. The
// replica's delivery check proves the two agree.
func faultPlan(env *sim.Env, round int, faulted bool) (*faults.Plan, desim.RadioConfig, error) {
	cfg := desim.DefaultRadioConfig()
	if !faulted {
		return nil, cfg, nil
	}
	plan, err := faults.New(faults.Config{
		Seed:          env.Scenario.Seed + int64(round),
		Channel:       faults.ChannelBernoulli,
		LossRate:      0.05,
		CrashFraction: 0.05,
		CrashStart:    0.05,
		CrashEnd:      0.6,
		Protect:       []network.NodeID{env.Tree.Root()},
	}, env.Network.Len())
	cfg.FrameDeadline = 1.5
	return plan, cfg, err
}

// replica re-runs the round rd through the public desim round functions
// with a trace.Recorder, asserts it delivers what the untraced round
// delivered, and takes the per-phase radio split from its trace.
func (t *tracer) replica(rd *sim.RoundData, lr *layerRound) error {
	env := t.r.env
	f := t.r.dyn.At(rd.T)
	t.rec.Reset()
	var (
		res *desim.RoundResult
		got []core.Report
		err error
	)
	if t.ds != nil {
		res, err = desim.RunFullRoundDelta(env.Tree, f, env.Query, *env.Scenario.Filter, desim.DefaultRadioConfig(), nil, t.ds, t.rec)
		if err == nil {
			t.aged.Apply(rd.Round, res.Delivered, t.rec)
			got = t.aged.Reports()
		}
	} else {
		plan, cfg, perr := faultPlan(env, rd.Round, rd.Faulted)
		if perr != nil {
			return perr
		}
		res, err = desim.RunFullRoundFaultsTraced(env.Tree, f, env.Query, *env.Scenario.Filter, cfg, plan, t.rec)
		if err == nil {
			got = res.Delivered
		}
	}
	if err != nil {
		return fmt.Errorf("round %d replica: %w", rd.Round, err)
	}
	if len(got) != len(rd.Reports) || (len(got) > 0 && !reflect.DeepEqual(got, rd.Reports)) {
		return fmt.Errorf("round %d: traced replica delivered %d reports, the untraced round %d, or they differ",
			rd.Round, len(got), len(rd.Reports))
	}
	if d := t.rec.Dropped(); d > 0 {
		return fmt.Errorf("round %d: replica trace lost %d events to a %d-event ring", rd.Round, d, t.rec.Capacity())
	}
	s := t.rec.Summarize()
	lr.events = res.Events
	for _, p := range s.Phases {
		for i, name := range phases {
			if p.Phase == name {
				lr.txBytes[i] = float64(p.TxBytes)
				lr.mJ[i] = 1000 * p.TxJoules
			}
		}
		lr.collisions += float64(p.Collisions)
		lr.retries += float64(p.Retries)
		lr.backoffs += float64(p.Backoffs)
		lr.drops += float64(p.Drops)
	}
	lr.reparents = float64(s.Reparents)
	lr.sinkDelivered, lr.generated = float64(s.SinkDelivered), float64(s.Generated)
	return nil
}

// readVars reads the isomapd counters from the server's /debug/vars.
func (t *tracer) readVars() (map[string]float64, error) {
	resp, err := t.r.conns[0].c.Get(t.r.root + "/debug/vars")
	if err != nil {
		return nil, fmt.Errorf("read /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("read /debug/vars: status %d", resp.StatusCode)
	}
	var doc struct {
		Isomapd map[string]float64 `json:"isomapd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	out := make(map[string]float64, len(serveCounters))
	for _, k := range serveCounters {
		out[k] = doc.Isomapd[k]
	}
	return out, nil
}

// spans lists the round's root span and its children in the round's
// order: sense, push, first raster, then the queries.
func spans(rec *roundRec) []span {
	out := []span{{"round", 0, rec.rootNs}}
	if rec.rd != nil {
		out = append(out, span{"sim.next", 0, rec.simNs})
	}
	out = append(out, span{"serve.push", 0, rec.pushNs}, span{"serve.first_raster", 0, rec.rasterNs})
	for _, q := range rec.queries {
		out = append(out, span{"serve.query." + q.surface, q.conn, q.ns})
	}
	return out
}

// coverage is the share of the root spans their connection-1 children
// cover, in percent.
func (t *tracer) coverage() float64 {
	var root, child float64
	for _, lr := range t.rounds {
		for _, s := range lr.spans {
			switch {
			case s.name == "round":
				root += float64(s.ns)
			case s.conn == 0:
				child += float64(s.ns)
			}
		}
	}
	return pct(child, root)
}

// metrics derives the per-layer metrics. Counts and radio figures average
// over the first detRounds rounds, so they repeat exactly for a seed;
// times are medians over every traced round. plainMs is round_ms_p50 of
// the same rounds run untraced, the base of trace.overhead_pct. Layers a
// workload does not run report 0.
func (t *tracer) metrics(detRounds int, plainMs float64) []metric {
	rounds := t.rounds
	det := rounds[:min(detRounds, len(rounds))]
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var (
		sim, clean, faulted, nsPerEvent, simAlloc          []float64
		update, raster, updateAlloc, push, pushSelf, first []float64
		stageMs                                            [len(stages)][]float64
		surfaces                                           = map[string][]float64{}
		round, gcCycles, gcPauseMs                         []float64
		counters                                           = map[string]float64{}
	)
	for _, lr := range rounds {
		rec := lr.rec
		for _, s := range lr.spans {
			switch s.name {
			case "round":
			case "sim.next":
				sim = append(sim, ms(s.ns))
				if rec.rd.Faulted {
					faulted = append(faulted, ms(s.ns))
				} else {
					clean = append(clean, ms(s.ns))
				}
				if lr.events > 0 {
					nsPerEvent = append(nsPerEvent, float64(s.ns)/float64(lr.events))
				}
			case "serve.push":
				push = append(push, ms(s.ns))
				pushSelf = append(pushSelf, ms(s.ns-rec.updateNs))
			case "serve.first_raster":
				first = append(first, ms(s.ns))
			default:
				q := strings.TrimPrefix(s.name, "serve.query.")
				surfaces[q] = append(surfaces[q], float64(s.ns)/1e3)
			}
		}
		round = append(round, ms(rec.roundNs))
		update = append(update, ms(rec.updateNs))
		raster = append(raster, ms(rec.shadowRasterNs))
		for i := range stages {
			stageMs[i] = append(stageMs[i], ms(lr.stageNs[i]))
		}
		for k, v := range lr.counters {
			counters[k] += v
		}
		m := rec.mem
		gcCycles = append(gcCycles, float64(m.gcCycles))
		gcPauseMs = append(gcPauseMs, float64(m.gcPauseNs)/1e6)
		updateAlloc = append(updateAlloc, rec.updateAllocKB)
		if rec.rd != nil {
			simAlloc = append(simAlloc, m.simAllocKB)
		}
	}
	var (
		events, reports                                       float64
		txBytes, mJ                                           [len(phases)]float64
		collisions, retries, backoffs, drops, reparents       float64
		delivered, generated                                  float64
		crossings, suppressed, retired, expired, belief, ages float64
		cells                                                 contour.IncrementalStats
	)
	for _, lr := range det {
		events += float64(lr.events)
		reports += float64(len(lr.rec.reports))
		for i := range phases {
			txBytes[i] += lr.txBytes[i]
			mJ[i] += lr.mJ[i]
		}
		collisions += lr.collisions
		retries += lr.retries
		backoffs += lr.backoffs
		drops += lr.drops
		reparents += lr.reparents
		delivered += lr.sinkDelivered
		generated += lr.generated
		if rd := lr.rec.rd; rd != nil && rd.Delta != nil {
			crossings += float64(rd.Delta.Crossings)
			suppressed += float64(rd.Delta.Suppressed)
			retired += float64(rd.Delta.Retired)
			expired += float64(rd.Delta.Expired)
			belief += float64(rd.Delta.MapReports)
			ages += rd.Delta.MeanAgeRounds
		}
		cells.CellsReused += lr.stats.CellsReused
		cells.CellsRecomputed += lr.stats.CellsRecomputed
		cells.RasterCellsCopied += lr.stats.RasterCellsCopied
		cells.RasterCellsReclassified += lr.stats.RasterCellsReclassified
	}
	nd, nr := len(det), len(rounds)
	per := func(sum float64) float64 { return sum / float64(max(nd, 1)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out := []metric{
		{"sim.next_ms_p50", median(sim), "ms", len(sim)},
		{"sim.next_ms_clean_p50", median(clean), "ms", len(clean)},
		{"sim.next_ms_faulted_p50", median(faulted), "ms", len(faulted)},
		{"desim.events_per_round", per(events), "count/round", nd},
		{"desim.ns_per_event", median(nsPerEvent), "ns", len(nsPerEvent)},
		{"desim.alloc_kb_per_round", median(simAlloc), "KB", len(simAlloc)},
	}
	for i, p := range phases {
		out = append(out, metric{"desim." + p + ".tx_bytes", per(txBytes[i]), "B/round", nd},
			metric{"desim." + p + ".mJ", per(mJ[i]), "mJ/round", nd})
	}
	out = append(out,
		metric{"desim.collisions", per(collisions), "count/round", nd},
		metric{"desim.retries", per(retries), "count/round", nd},
		metric{"desim.backoffs", per(backoffs), "count/round", nd},
		metric{"desim.drops", per(drops), "count/round", nd},
		metric{"desim.reparents", per(reparents), "count/round", nd},
		metric{"desim.delivery_ratio", ratio(delivered, generated), "fraction", nd},
		metric{"desim.delta.crossings", per(crossings), "count/round", nd},
		metric{"desim.delta.suppressed", per(suppressed), "count/round", nd},
		metric{"desim.delta.retired", per(retired), "count/round", nd},
		metric{"desim.delta.suppress_ratio", ratio(suppressed, crossings+suppressed), "fraction", nd},
		metric{"monitor.belief_reports", per(belief), "count", nd},
		metric{"monitor.expired", per(expired), "count/round", nd},
		metric{"monitor.mean_age_rounds", per(ages), "rounds", nd},
		metric{"contour.reports", per(reports), "count", nd},
		metric{"contour.update_ms_p50", median(update), "ms", nr},
		metric{"contour.raster_ms_p50", median(raster), "ms", nr},
	)
	for i, s := range stages {
		out = append(out, metric{"contour." + s + "_ms", median(stageMs[i]), "ms", nr})
	}
	out = append(out,
		metric{"contour.cells_reused_pct", pct(float64(cells.CellsReused), float64(cells.CellsReused+cells.CellsRecomputed)), "%", nd},
		metric{"contour.raster_reclassified_pct", pct(float64(cells.RasterCellsReclassified),
			float64(cells.RasterCellsCopied+cells.RasterCellsReclassified)), "%", nd},
		metric{"contour.alloc_kb_per_update", median(updateAlloc), "KB", len(updateAlloc)},
		metric{"serve.push_ms_p50", median(push), "ms", nr},
		metric{"serve.push_self_ms_p50", median(pushSelf), "ms", nr},
		metric{"serve.first_raster_ms_p50", median(first), "ms", nr},
	)
	for _, s := range []string{"raster", "polyline", "classify", "range", "meta"} {
		out = append(out, metric{"serve." + s + "_us_p50", median(surfaces[s]), "us", len(surfaces[s])})
	}
	perRound := func(k string) float64 { return counters[k] / float64(max(nr, 1)) }
	out = append(out,
		metric{"serve.cache_hit_pct", pct(counters["cache_hits"], counters["cache_hits"]+counters["cache_misses"]), "%", nr},
		metric{"serve.cache_misses", perRound("cache_misses"), "count/round", nr},
		metric{"serve.cache_evictions", perRound("cache_evictions"), "count/round", nr},
		metric{"serve.singleflight_coalesced", perRound("singleflight_coalesced"), "count/round", nr},
		metric{"serve.rasters_shed", perRound("rasters_shed"), "count/round", nr},
		metric{"serve.not_modified_pct", pct(counters["not_modified"], counters["not_modified"]+counters["queries"]), "%", nr},
		metric{"go.gc_cycles_per_round", mean(gcCycles), "count/round", len(gcCycles)},
		metric{"go.gc_pause_ms_per_round", mean(gcPauseMs), "ms", len(gcPauseMs)},
		metric{"trace.coverage_pct", t.coverage(), "%", nr},
		metric{"trace.overhead_pct", pct(median(round)-plainMs, plainMs), "%", nr},
	)
	return out
}
