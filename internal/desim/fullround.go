package desim

import (
	"fmt"
	"sort"

	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/metrics"
	"isomap/internal/network"
	"isomap/internal/routing"
	"isomap/internal/trace"
)

// RoundResult is the outcome of a full packet-level Iso-Map round.
type RoundResult struct {
	// QueryReached counts nodes that received the flooded query, or in a
	// standing-query delta round woke on their epoch timer.
	QueryReached int
	// IsolineNodes counts nodes that appointed themselves.
	IsolineNodes int
	// Generated counts reports produced (after regression succeeded).
	Generated int
	// Delivered are the reports collected at the sink.
	Delivered []core.Report
	// QuerySeconds, MeasureSeconds and CollectSeconds are the phase
	// completion times; TotalSeconds is the whole round.
	QuerySeconds   float64
	MeasureSeconds float64
	CollectSeconds float64
	TotalSeconds   float64
	// Radio exposes the link-layer statistics.
	Radio RadioStats
	// SparseMeasures counts candidates whose measurement ran on fewer
	// than 3 neighbour samples: the cost of unrecovered broadcast
	// replies.
	SparseMeasures int
	// ReportDrops counts report batches abandoned during collection, the
	// only phase that sends acked frames.
	ReportDrops int
	// Crossings, Suppressed and Retired are the delta-report mode's
	// source-side tally: reports transmitted because a level transit or
	// gradient rotation was detected, repeats withheld, and withdrawal
	// records sent for abandoned isolevels. All zero outside delta mode.
	Crossings  int
	Suppressed int
	Retired    int
	// Crashed counts nodes killed mid-round by the fault plan.
	Crashed int
	// Repairs counts successful re-parenting events: a node whose parent
	// went silent re-attached to a surviving lower-level neighbor.
	Repairs int
	// Severed counts nodes left with no alive upward neighbor after
	// their parent died — their queued reports are lost.
	Severed int
	// Counters holds the physical per-node tx/rx byte charges of the
	// round (retries and acks included); no operations are charged.
	Counters *metrics.Counters
	// Events is the number of simulator events executed.
	Events int64
}

// RoundOptions selects how RunRound runs one round. The zero value is a
// fault-free, untraced, full-report round on a fresh NewEngine().
type RoundOptions struct {
	// Engine is the scheduler: the production Engine or a ShardedEngine
	// (tests also pass the EngineNaive oracle). Nil selects NewEngine().
	Engine EngineAPI
	// Faults is the injected fault plan; nil runs fault-free. Plans are
	// stateful: pass a fresh one per round.
	Faults *faults.Plan
	// Delta, when non-nil, runs the delta-report protocol; it carries the
	// cross-round transmitted-report memory and is updated in place. See
	// DeltaState for the protocol contract.
	Delta *DeltaState
	// Trace records the round's structured events (see internal/trace);
	// nil runs untraced.
	Trace *trace.Recorder
}

// RunFullRoundFaultsTraced is RunRound with a fault plan and a trace
// recorder on a fresh sequential engine. It remains only because the
// separate perfbench module calls it; new code calls RunRound.
func RunFullRoundFaultsTraced(tree *routing.Tree, f field.Field, q core.Query, fc core.FilterConfig, cfg RadioConfig, plan *faults.Plan, rec *trace.Recorder) (*RoundResult, error) {
	return RunRound(tree, f, q, fc, cfg, RoundOptions{Faults: plan, Trace: rec})
}

// RunFullRoundDelta is the delta-report RunRound on a fresh sequential
// engine; unlike RunRound it rejects a nil DeltaState. It remains only
// because the separate perfbench module calls it; new code calls
// RunRound.
func RunFullRoundDelta(tree *routing.Tree, f field.Field, q core.Query, fc core.FilterConfig, cfg RadioConfig, plan *faults.Plan, ds *DeltaState, rec *trace.Recorder) (*RoundResult, error) {
	if ds == nil {
		return nil, fmt.Errorf("desim: delta round needs a DeltaState")
	}
	return RunRound(tree, f, q, fc, cfg, RoundOptions{Faults: plan, Delta: ds, Trace: rec})
}

// Windows (in seconds) shaping the round: how long a node listens for
// probe replies before regressing, and the convergecast batching delay.
const (
	probeDelay  = 0.05 // after hearing the query
	replyWindow = 0.25 // reply collection span
)

// roundState is the cross-shard state of one full round. The per-node
// slices are shared by all shards but every index is only ever touched
// from the shard owning that node (receive handlers, flushes and
// measurements all run on the owner), so no locking is needed.
type roundState struct {
	nw   *network.Network
	tree *routing.Tree
	q    core.Query
	// levels are q's level values, computed once per round.
	levels  []float64
	fc      core.FilterConfig
	cfg     RadioConfig
	plan    *faults.Plan
	crashes []faults.Crash
	root    network.NodeID

	// delta, when non-nil, switches the round into delta-report mode;
	// it carries the cross-round per-node transmitted-report memory.
	delta *DeltaState

	// eng is the caller's scheduler (the facade when sharded, se then
	// non-nil); counters are the physical charges every shard's radio
	// books into.
	eng      EngineAPI
	se       *ShardedEngine
	counters *metrics.Counters
	// injects holds each source's reports in a collection-only round
	// (CollectReports); evInject hands them to the convergecast.
	injects [][]core.Report

	queryHeard []bool
	// replied marks nodes whose one probe reply is armed; listening marks
	// border candidates between hearing the query and their evMeasure,
	// the only span in which a node keeps the replies it hears.
	replied   []bool
	listening []bool
	// samples, kept and outbox are carved from the owning shard's blocks.
	samples    [][]core.Sample
	kept       [][]core.Report
	outbox     [][]core.Report
	flushArmed []bool
	// parentOf is the round's mutable routing state, seeded from the BFS
	// tree; route repair rewrites an entry when its parent goes silent.
	parentOf []network.NodeID
	severed  []bool

	shards []*roundShard
}

// roundShard is the shard-bound half: one scheduler, one radio, one
// trace recorder and one partial tally per shard. A sequential round is
// the one-shard special case. Partial results merge by summation (maxima
// for the phase times) after the run.
type roundShard struct {
	rs    *roundState
	eng   EngineAPI
	radio *Radio
	rec   *trace.Recorder
	res   RoundResult
	// crashed records the nodes this shard killed so their Failed marks
	// can be lifted once the round is tallied. A crash is a round-scoped
	// radio event, not a permanent topology edit: callers reuse the
	// network (and trees bound to it) across rounds under the contract
	// that nothing a round does survives it except node values, and a
	// lingering Failed mark silently shrinks every later round.
	crashed []network.NodeID
	parked  parkedBatches
	// seen is the report dedup of the shard's nodes; samples and reports
	// are the blocks their per-node storage is carved from.
	seen    seenSet
	samples block[core.Sample]
	reports block[core.Report]

	// Scratch buffers reused across frames and measurements; their
	// contents are consumed before the next call that fills them.
	freshScratch  []core.Report
	matchScratch  []int
	sampleScratch []core.Sample
	reportScratch []core.Report
	deltaScratch  []core.Report
	levelScratch  []int
	// wakes are this shard's standing-query timers still to schedule, in
	// (offset, id) order.
	wakes []network.NodeID
}

// jitterFor spreads per-node delays quasi-uniformly over a window of
// slots, deterministically: synchronized rebroadcasts are what kill
// unacknowledged floods.
func (rs *roundState) jitterFor(id network.NodeID, spreadSlots int) float64 {
	h := uint64(id)*2654435761 + 97
	h ^= h >> 13
	return float64(1+h%uint64(spreadSlots)) * rs.cfg.SlotTime
}

// candidate reports whether value v lies in the border region of some
// queried level: q.CandidateLevels(v) is non-empty.
func (rs *roundState) candidate(v float64) bool {
	for _, lambda := range rs.levels {
		if rs.q.InBorder(v, lambda) {
			return true
		}
	}
	return false
}

func (sh *roundShard) accept(at network.NodeID, incoming []core.Report) []core.Report {
	rs := sh.rs
	fresh := sh.freshScratch[:0]
	for i := range incoming {
		r := &incoming[i]
		if !sh.seen.add(at, r) {
			continue
		}
		if r.Retire {
			// Withdrawal records bypass the spatial redundancy filter — a
			// retirement must always reach the sink — and stay out of kept,
			// which only grounds that filter's data-report comparisons.
			fresh = append(fresh, *r)
			continue
		}
		if rs.fc.Enabled {
			dup := false
			for _, k := range rs.kept[at] {
				if rs.fc.Redundant(k, *r) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		rs.kept[at] = append(sh.reports.grow(rs.kept[at], 1), *r)
		fresh = append(fresh, *r)
	}
	sh.freshScratch = fresh
	return fresh
}

func (sh *roundShard) forward(from network.NodeID, batch []core.Report) {
	rs := sh.rs
	if len(batch) == 0 || rs.parentOf[from] < 0 {
		return
	}
	rs.outbox[from] = append(sh.reports.grow(rs.outbox[from], len(batch)), batch...)
	if rs.flushArmed[from] {
		return
	}
	rs.flushArmed[from] = true
	delay := float64(6+int(from)%5) * rs.cfg.SlotTime
	sh.eng.ScheduleEvent(delay, Event{Kind: evFlush, Node: from})
}

// flush empties a node's outbox into one frame toward its (possibly
// repaired) parent; the frame rides a pooled batch copy so the outbox
// keeps its capacity across flushes. Parent liveness is judged through
// the radio's propagation-delayed view — the same information a real
// node has — which is also what keeps sharded runs identical: a remote
// parent's crash becomes visible everywhere at the same simulated time.
func (sh *roundShard) flush(from network.NodeID) {
	rs := sh.rs
	rs.flushArmed[from] = false
	pending := rs.outbox[from]
	rs.outbox[from] = pending[:0]
	if len(pending) == 0 || !rs.nw.Alive(from) {
		return
	}
	parent := rs.parentOf[from]
	if !sh.radio.visibleAlive(parent) {
		// Route repair: re-attach to the best surviving lower-level
		// neighbor instead of black-holing the subtree behind a dead
		// parent.
		np, ok := rs.tree.BestAliveParentFunc(from, sh.radio.visibleAlive)
		if !ok {
			if !rs.severed[from] {
				rs.severed[from] = true
				sh.res.Severed++
				if sh.rec != nil {
					sh.rec.Record(trace.Event{T: sh.eng.Now(), Kind: trace.KindSevered,
						Node: int32(from), Peer: int32(parent)})
				}
			}
			return
		}
		if sh.rec != nil {
			sh.rec.Record(trace.Event{T: sh.eng.Now(), Kind: trace.KindReparent,
				Node: int32(from), Peer: int32(np), Seq: int64(parent),
				Arg: trace.PackLevels(rs.tree.Level(from), rs.tree.Level(np))})
		}
		rs.parentOf[from] = np
		parent = np
		sh.res.Repairs++
	}
	batch := append(sh.radio.pool.get(), pending...)
	size := 0
	for _, r := range pending {
		if r.Retire {
			size += core.RetireBytes
		} else {
			size += core.ReportBytes
		}
	}
	_ = sh.radio.SendReports(from, parent, size, batch)
}

func (sh *roundShard) handleDrop(fr Frame) {
	switch fr.Kind {
	case FrameReports:
		sh.res.ReportDrops++
		// Transport recovery: re-queue the batch exactly once per drop
		// after a pause; the flush path re-parents when the silent parent
		// turns out to be dead. The frame's batch is recycled when this
		// handler returns, so park a pooled copy until the re-queue event
		// fires. The event carries the frame seq so same-time requeues
		// order identically at any shard count (park slots are
		// shard-local and would not).
		slot := sh.parked.park(&sh.radio.pool, fr.Batch)
		sh.eng.ScheduleEvent(32*sh.rs.cfg.SlotTime, Event{Kind: evRequeue, Node: fr.From, Seq: fr.seq, Arg: slot})
	}
}

// measure runs Definition 3.1 + regression once a node's reply window
// closes, then injects the reports into the convergecast.
func (sh *roundShard) measure(id network.NodeID) {
	rs := sh.rs
	rs.listening[id] = false
	if !rs.nw.Alive(id) {
		return // crashed after probing
	}
	if len(rs.samples[id]) < 3 {
		sh.res.SparseMeasures++
	}
	node := rs.nw.Node(id)
	levels := rs.levels
	matched := sh.matchScratch[:0]
	for li, lambda := range levels {
		if !rs.q.InBorder(node.Value, lambda) {
			continue
		}
		for _, s := range rs.samples[id] {
			if (node.Value < lambda && lambda < s.Value) || (s.Value < lambda && lambda < node.Value) {
				matched = append(matched, li)
				break
			}
		}
	}
	sh.matchScratch = matched
	if len(matched) == 0 {
		// In delta mode a node that stopped straddling every level
		// withdraws what it last transmitted (crossing-out).
		sh.deltaRetireAll(id)
		return
	}
	all := append(sh.sampleScratch[:0], core.Sample{Pos: node.Pos, Value: node.Value})
	all = append(all, rs.samples[id]...)
	sh.sampleScratch = all
	grad, err := core.GradientByRegression(all)
	if err != nil || grad.Norm() <= geom.Eps {
		sh.deltaRetireAll(id)
		return
	}
	sh.res.IsolineNodes++
	reports := sh.reportScratch[:0]
	for _, li := range matched {
		reports = append(reports, core.Report{
			Level:      levels[li],
			LevelIndex: li,
			Pos:        node.Pos,
			Grad:       grad,
			Source:     id,
		})
	}
	sh.reportScratch = reports
	sh.res.Generated += len(reports)
	if sh.rec != nil {
		sh.rec.Record(trace.Event{T: sh.eng.Now(), Kind: trace.KindGenerate,
			Node: int32(id), Peer: -1, Arg: int32(len(reports))})
	}
	if t := sh.eng.Now(); t > sh.res.MeasureSeconds {
		sh.res.MeasureSeconds = t
	}
	if rs.delta != nil {
		reports = sh.deltaFilter(id, reports)
		if len(reports) == 0 {
			return
		}
	}
	sh.emit(id, reports)
}

// emit hands reports a node produced itself to the convergecast: filter
// them at the node, then deliver at the sink or queue toward the parent.
func (sh *roundShard) emit(id network.NodeID, reports []core.Report) {
	fresh := sh.accept(id, reports)
	if id == sh.rs.root {
		sh.res.Delivered = append(sh.res.Delivered, fresh...)
		if sh.rec != nil {
			sh.rec.Record(trace.Event{T: sh.eng.Now(), Kind: trace.KindSinkReport,
				Node: int32(id), Peer: -1, Arg: int32(len(fresh))})
		}
		return
	}
	sh.forward(id, fresh)
}

// deltaFilter is the delta mode's source-side decision over a node's
// freshly produced reports: transmit level transits and sufficiently
// rotated gradients, suppress unchanged repeats, and append withdrawal
// records for tracked isolevels the node no longer straddles. The
// tracked set compares against the last *transmission*, so slow drift
// re-reports once its cumulative rotation crosses the threshold.
func (sh *roundShard) deltaFilter(id network.NodeID, reports []core.Report) []core.Report {
	rs := sh.rs
	ds := rs.delta
	last := &ds.lastSent[id]
	now := sh.eng.Now()
	out := sh.deltaScratch[:0]
	for _, r := range reports {
		if i := last.find(r.LevelIndex); i >= 0 && core.AngularSeparation(*last.at(i), r) < ds.gradAngle {
			sh.res.Suppressed++
			if sh.rec != nil {
				sh.rec.Record(trace.Event{T: now, Kind: trace.KindSuppress,
					Phase: trace.PhaseMeasure, Node: int32(id), Peer: -1, Arg: int32(r.LevelIndex)})
			}
			continue
		}
		last.put(r)
		out = append(out, r)
		sh.res.Crossings++
		if sh.rec != nil {
			sh.rec.Record(trace.Event{T: now, Kind: trace.KindCrossing,
				Phase: trace.PhaseMeasure, Node: int32(id), Peer: -1, Arg: int32(r.LevelIndex)})
		}
	}
	// Crossing-out: tracked levels absent from this round's production.
	if last.n > 0 {
		lis := sh.levelScratch[:0]
		for i := range int(last.n) {
			li := last.at(i).LevelIndex
			still := false
			for _, r := range reports {
				if r.LevelIndex == li {
					still = true
					break
				}
			}
			if !still {
				lis = append(lis, li)
			}
		}
		sort.Ints(lis)
		sh.levelScratch = lis
		for _, li := range lis {
			out = append(out, sh.deltaRetireOne(id, last, li, now))
		}
	}
	sh.deltaScratch = out
	return out
}

// deltaRetireOne withdraws one tracked isolevel: it deletes the entry,
// tallies the retirement and returns the withdrawal record.
func (sh *roundShard) deltaRetireOne(id network.NodeID, last *sentSet, li int, now float64) core.Report {
	i := last.find(li)
	prev := *last.at(i)
	last.remove(i)
	sh.res.Retired++
	if sh.rec != nil {
		// A retirement is a crossing too — the isoline moved past the node
		// outward; Seq 1 distinguishes it from a crossing-in.
		sh.rec.Record(trace.Event{T: now, Kind: trace.KindCrossing,
			Phase: trace.PhaseMeasure, Node: int32(id), Peer: -1, Seq: 1, Arg: int32(li)})
	}
	return retireRecord(prev)
}

// deltaRetireAll withdraws everything a node tracks. It runs when a
// delta-mode node finds itself off every isoline: after a failed
// measurement, or via evDeltaRetire when the node was not even a border
// candidate this round.
func (sh *roundShard) deltaRetireAll(id network.NodeID) {
	rs := sh.rs
	if rs.delta == nil || !rs.nw.Alive(id) {
		return
	}
	last := &rs.delta.lastSent[id]
	if last.n == 0 {
		return
	}
	now := sh.eng.Now()
	lis := sh.levelScratch[:0]
	for i := range int(last.n) {
		lis = append(lis, last.at(i).LevelIndex)
	}
	sort.Ints(lis)
	sh.levelScratch = lis
	out := sh.deltaScratch[:0]
	for _, li := range lis {
		out = append(out, sh.deltaRetireOne(id, last, li, now))
	}
	sh.deltaScratch = out
	sh.emit(id, out)
}

// wake starts node at's round: everything hearing the query runs except
// the flood's rebroadcast. Border-region candidates arm their probe; a
// delta-mode node outside every border region withdraws what it tracks.
// It runs on the first reception of a flood, or on evWake at the node's
// epoch offset in a standing-query round.
func (sh *roundShard) wake(at network.NodeID) {
	rs := sh.rs
	rs.queryHeard[at] = true
	sh.res.QueryReached++
	if t := sh.eng.Now(); t > sh.res.QuerySeconds {
		sh.res.QuerySeconds = t
	}
	if !rs.candidate(rs.nw.Node(at).Value) {
		if rs.delta != nil && rs.delta.trackedAt(at) > 0 {
			// The isoline moved entirely out of this node's border
			// region: withdraw its tracked reports on the same schedule
			// a measurement would have produced them.
			sh.eng.ScheduleEvent(probeDelay+replyWindow+rs.jitterFor(at+3000, 128),
				Event{Kind: evDeltaRetire, Node: at})
		}
		return
	}
	rs.listening[at] = true
	sh.eng.ScheduleEvent(probeDelay+rs.jitterFor(at+1000, 128), Event{Kind: evProbeStart, Node: at})
}

// nextWake schedules the shard's next standing-query timer. Each evWake
// schedules the one after it, so the queue holds one pending timer per
// shard instead of every node's at once; the timers fire in (offset, id)
// order either way.
func (sh *roundShard) nextWake() {
	if len(sh.wakes) == 0 {
		return
	}
	id := sh.wakes[0]
	sh.wakes = sh.wakes[1:]
	sh.eng.ScheduleEventAt(sh.rs.delta.offset[id], Event{Kind: evWake, Node: id})
}

// onFrame is the receive handler every alive node shares: query flood,
// probes, replies and report batches. It always runs on the shard owning
// the receiving node.
func (sh *roundShard) onFrame(at network.NodeID, fr *Frame) {
	rs := sh.rs
	switch fr.Kind {
	case FrameQuery:
		if rs.queryHeard[at] {
			return
		}
		if sh.rec != nil {
			sh.rec.Record(trace.Event{T: sh.eng.Now(), Kind: trace.KindQueryHeard,
				Phase: trace.PhaseQuery, Node: int32(at), Peer: int32(fr.From)})
		}
		if rs.delta != nil {
			rs.delta.offset[at] = sh.eng.Now()
		}
		// Rebroadcast the flood once.
		sh.eng.ScheduleEvent(rs.jitterFor(at, 64), Event{Kind: evRebroadcast, Node: at})
		sh.wake(at)
	case FrameProbe:
		// The first probe heard arms the node's one reply, which every
		// listening candidate in range keeps, not only this prober.
		if !rs.replied[at] {
			rs.replied[at] = true
			sh.eng.ScheduleEvent(rs.jitterFor(at+2000, 64), Event{Kind: evReplySend, Node: at})
		}
	case FrameReply:
		if rs.listening[at] {
			rs.samples[at] = append(sh.samples.grow(rs.samples[at], 1), fr.Sample)
		}
	case FrameReports:
		fresh := sh.accept(at, fr.Batch)
		if at == rs.root {
			sh.res.Delivered = append(sh.res.Delivered, fresh...)
			if sh.rec != nil {
				sh.rec.Record(trace.Event{T: sh.eng.Now(), Kind: trace.KindSinkReport,
					Phase: trace.PhaseCollect, Node: int32(rs.root), Peer: int32(fr.From), Arg: int32(len(fresh))})
			}
			if len(fresh) > 0 && sh.eng.Now() > sh.res.CollectSeconds {
				sh.res.CollectSeconds = sh.eng.Now()
			}
			return
		}
		sh.forward(at, fresh)
	}
}

func (sh *roundShard) onEvent(ev Event) {
	rs := sh.rs
	switch ev.Kind {
	case evFlush:
		sh.flush(ev.Node)
	case evRequeue:
		b := sh.parked.take(ev.Arg)
		if sh.rec != nil {
			sh.rec.Record(trace.Event{T: sh.eng.Now(), Kind: trace.KindRequeue,
				Phase: trace.PhaseCollect, Node: int32(ev.Node), Peer: -1, Arg: int32(len(b))})
		}
		sh.forward(ev.Node, b)
		sh.radio.pool.put(b)
	case evRebroadcast:
		_ = sh.radio.BroadcastQuery(ev.Node, core.QueryBytes)
	case evProbeStart:
		_ = sh.radio.BroadcastProbe(ev.Node, core.ProbeBytes)
		sh.eng.ScheduleEvent(replyWindow, Event{Kind: evMeasure, Node: ev.Node})
	case evMeasure:
		sh.measure(ev.Node)
	case evReplySend:
		node := rs.nw.Node(ev.Node)
		_ = sh.radio.BroadcastReply(ev.Node, core.ProbeReplyBytes, core.Sample{Pos: node.Pos, Value: node.Value})
	case evCrash:
		c := rs.crashes[ev.Arg]
		if rs.nw.Alive(c.Node) {
			sh.radio.Crash(c.Node)
			sh.crashed = append(sh.crashed, c.Node)
			sh.res.Crashed++
		}
	case evDeltaRetire:
		sh.deltaRetireAll(ev.Node)
	case evWake:
		sh.nextWake()
		if !rs.nw.Alive(ev.Node) {
			return // crashed before its timer fired
		}
		if sh.rec != nil {
			sh.rec.Record(trace.Event{T: sh.eng.Now(), Kind: trace.KindWake,
				Phase: trace.PhaseQuery, Node: int32(ev.Node), Peer: -1})
		}
		sh.wake(ev.Node)
	case evInject:
		sh.emit(ev.Node, rs.injects[ev.Node])
	}
}

// RunRound executes an entire Iso-Map round on the discrete-event radio:
// the sink floods the query (unacknowledged broadcast flood with
// duplicate suppression) — or, in a delta round that holds a standing
// query (see DeltaState), nodes start on their epoch timers with nothing
// on the air — nodes whose readings fall in the border region
// probe their neighborhood and run the regression when the replies are
// in, and the resulting reports converge-cast to the sink with
// in-network filtering. Every phase is made of real frames subject to
// carrier sensing, collisions and loss.
//
// Phase boundaries are realized with guard times rather than global
// barriers: a node starts its probe a fixed delay after hearing the
// query, and flushes its report once its reply-collection window closes
// — as a real deployment would, with no global clock.
//
// Under a fault plan the plan's channel model erases receptions per
// link, its crash schedule kills nodes mid-round, and its sink model
// corrupts/duplicates delivered reports. The round degrades instead of
// wedging: a node whose parent goes silent — detected when a report
// batch toward it exhausts its retries or deadline — re-parents onto its
// best surviving lower-level neighbor (routing.Tree.BestAliveParentFunc
// under the radio's delayed liveness view) and re-queues the batch, so a
// crashed relay black-holes nothing but its own queue. A nil or empty
// plan leaves every code path untouched.
//
// Tracing records the round's internal happenings — frame lifecycles
// with phase and drop cause, re-parenting with BFS levels, crash times,
// sink report arrivals, the round-end tally — without perturbing it: a
// nil recorder leaves every code path and every output byte identical,
// and an attached recorder draws no randomness and schedules nothing.
//
// When opt.Engine is a *ShardedEngine (callers partition with
// network.NewGridPartition) the round runs one protocol instance per
// shard: each shard's engine executes its own nodes' events, radios
// exchange cross-shard frames through the group mailboxes, and the
// partial tallies merge after the run. Per-node protocol state lives in
// shared slices touched only by the owning shard. Each shard records
// into its own recorder (sized to opt.Trace's capacity) and the
// per-shard traces are merged canonically — sorted by (timestamp,
// serialized line) — into opt.Trace, so the merged trace depends only on
// what happened, not on shard interleaving. Every engine executes the
// identical event sequence: the result, the trace and the state left in
// opt.Delta are byte-identical at any shard and worker count, which the
// equivalence property tests pin.
func RunRound(tree *routing.Tree, f field.Field, q core.Query, fc core.FilterConfig, cfg RadioConfig, opt RoundOptions) (*RoundResult, error) {
	if tree == nil {
		return nil, fmt.Errorf("desim: nil routing tree")
	}
	tree.Network().Sense(f)
	rs, err := newRound(tree, q, fc, cfg, opt)
	if err != nil {
		return nil, err
	}

	// The sink originates the query, on its own shard's scheduler — the
	// bootstrap closure is the round's only untyped event, alone at t=0,
	// so its execution slot is identical at every shard count. A delta
	// round between floods instead wakes every node holding the standing
	// query at its epoch offset, on the owning shard.
	flood := opt.Delta == nil || opt.Delta.beginRound(q)
	rootSh := rs.shardFor(rs.root)
	rs.queryHeard[rs.root] = true
	rootSh.res.QueryReached++
	if rootSh.rec != nil {
		ev := trace.Event{Kind: trace.KindQueryHeard, Phase: trace.PhaseQuery, Node: int32(rs.root), Peer: int32(rs.root)}
		if !flood {
			ev.Kind, ev.Peer = trace.KindWake, -1
		}
		rootSh.rec.Record(ev)
	}
	if flood {
		if opt.Delta != nil {
			opt.Delta.offset[rs.root] = 0
		}
		rootSh.eng.Schedule(0, func() {
			_ = rootSh.radio.BroadcastQuery(rs.root, core.QueryBytes)
		})
	} else {
		for _, id := range opt.Delta.wakeOrder {
			if id != rs.root && rs.nw.Alive(id) {
				sh := rs.shardFor(id)
				sh.wakes = append(sh.wakes, id)
			}
		}
		for _, sh := range rs.shards {
			sh.nextWake()
		}
	}
	// The sink itself may be an isoline node: give it the same probe path.
	if rs.candidate(rs.nw.Node(rs.root).Value) {
		rs.listening[rs.root] = true
		rootSh.eng.ScheduleEvent(probeDelay, Event{Kind: evProbeStart, Node: rs.root})
	} else if ds := opt.Delta; ds != nil && ds.trackedAt(rs.root) > 0 {
		rootSh.eng.ScheduleEvent(probeDelay+replyWindow, Event{Kind: evDeltaRetire, Node: rs.root})
	}

	res := rs.run(opt.Trace)
	if flood && opt.Delta != nil {
		opt.Delta.sortWakes()
	}
	res.Delivered = opt.Faults.MangleSinkReports(res.Delivered, field.BoundsRect(f))
	return res, nil
}

// newRound is the setup every packet round shares: one radio per shard,
// all charging one set of counters; the cross-shard roundState seeded
// from the tree; a roundShard with its drop and event handlers per radio;
// a receive handler on every alive node; and the fault plan's crash
// schedule. It senses nothing and schedules no protocol traffic — the
// caller seeds that before run.
func newRound(tree *routing.Tree, q core.Query, fc core.FilterConfig, cfg RadioConfig, opt RoundOptions) (*roundState, error) {
	eng, plan, ds, rec := opt.Engine, opt.Faults, opt.Delta, opt.Trace
	if eng == nil {
		eng = NewEngine()
	}
	nw := tree.Network()
	n := nw.Len()
	counters := metrics.NewCounters(n)

	se, _ := eng.(*ShardedEngine)
	var radios []*Radio
	if se != nil {
		var err error
		radios, err = newShardedRadios(se, nw, cfg, counters)
		if err != nil {
			return nil, err
		}
	} else {
		r, err := NewRadio(eng, nw, cfg, counters)
		if err != nil {
			return nil, err
		}
		radios = []*Radio{r}
	}

	if ds != nil && ds.Nodes() != n {
		return nil, fmt.Errorf("desim: delta state built for %d nodes, deployment has %d", ds.Nodes(), n)
	}
	rs := &roundState{
		nw:         nw,
		tree:       tree,
		q:          q,
		fc:         fc,
		cfg:        cfg,
		plan:       plan,
		delta:      ds,
		crashes:    plan.Crashes(),
		root:       tree.Root(),
		eng:        eng,
		se:         se,
		counters:   counters,
		queryHeard: make([]bool, n),
		replied:    make([]bool, n),
		listening:  make([]bool, n),
		levels:     q.Levels.Values(),
		samples:    make([][]core.Sample, n),
		kept:       make([][]core.Report, n),
		outbox:     make([][]core.Report, n),
		flushArmed: make([]bool, n),
		parentOf:   make([]network.NodeID, n),
		severed:    make([]bool, n),
		shards:     make([]*roundShard, len(radios)),
	}
	for i := range rs.parentOf {
		rs.parentOf[i] = tree.Parent(network.NodeID(i))
	}

	links := plan.Links(nw)
	for i, r := range radios {
		shEng := eng
		if se != nil {
			shEng = se.Shard(i)
		}
		shRec := rec
		if se != nil && rec != nil {
			shRec = trace.NewRecorder(rec.Capacity())
		}
		r.SetTrace(shRec)
		r.links = links
		sh := &roundShard{rs: rs, eng: shEng, radio: r, rec: shRec}
		rs.shards[i] = sh
		r.OnDrop(sh.handleDrop)
		r.OnEvent(sh.onEvent)
	}
	// One method value per shard: evaluating sh.onFrame per node would
	// allocate a closure for every node.
	onFrame := make([]func(network.NodeID, *Frame), len(rs.shards))
	for i, sh := range rs.shards {
		onFrame[i] = sh.onFrame
	}
	for i := 0; i < n; i++ {
		if id := network.NodeID(i); nw.Alive(id) {
			sh := 0
			if se != nil {
				sh = se.ShardOf(id)
			}
			rs.shards[sh].radio.OnReceive(id, onFrame[sh])
		}
	}
	for i := range rs.crashes {
		// The facade routes the crash to the owning node's shard.
		eng.ScheduleEventAt(rs.crashes[i].Time, Event{Kind: evCrash, Node: rs.crashes[i].Node, Arg: int32(i)})
	}
	return rs, nil
}

// shardFor returns the shard owning node id.
func (rs *roundState) shardFor(id network.NodeID) *roundShard {
	if rs.se != nil {
		return rs.shards[rs.se.ShardOf(id)]
	}
	return rs.shards[0]
}

// run executes the seeded round until its queue drains and merges the
// shards' partial tallies into one result. rec is the caller's trace
// recorder (nil when untraced): the round-end event goes to the root's
// shard, and a sharded round's per-shard traces merge canonically into
// rec. Crashed nodes get their Failed marks lifted before run returns.
func (rs *roundState) run(rec *trace.Recorder) *RoundResult {
	total := rs.eng.Run()

	res := &RoundResult{Counters: rs.counters}
	for _, sh := range rs.shards {
		res.QueryReached += sh.res.QueryReached
		res.IsolineNodes += sh.res.IsolineNodes
		res.Generated += sh.res.Generated
		res.Crossings += sh.res.Crossings
		res.Suppressed += sh.res.Suppressed
		res.Retired += sh.res.Retired
		res.SparseMeasures += sh.res.SparseMeasures
		res.ReportDrops += sh.res.ReportDrops
		res.Crashed += sh.res.Crashed
		res.Repairs += sh.res.Repairs
		res.Severed += sh.res.Severed
		if sh.res.QuerySeconds > res.QuerySeconds {
			res.QuerySeconds = sh.res.QuerySeconds
		}
		if sh.res.MeasureSeconds > res.MeasureSeconds {
			res.MeasureSeconds = sh.res.MeasureSeconds
		}
		if sh.res.CollectSeconds > res.CollectSeconds {
			res.CollectSeconds = sh.res.CollectSeconds
		}
		res.Radio.add(sh.radio.Stats)
	}
	// All sink deliveries happen on the root's shard, in its intrinsic
	// event order — the same order a single engine pops them in.
	rootSh := rs.shardFor(rs.root)
	res.Delivered = rootSh.res.Delivered
	res.TotalSeconds = total
	res.Events = rs.eng.Steps()
	if rootSh.rec != nil {
		// Recorded before sink mangling: the trace accounts for what the
		// network delivered, not what fault injection corrupted after.
		rootSh.rec.Record(trace.Event{T: res.TotalSeconds, Kind: trace.KindRoundEnd,
			Node: int32(rs.root), Peer: -1, Seq: int64(len(res.Delivered))})
	}
	if rs.se != nil && rec != nil {
		var all []trace.Event
		for _, sh := range rs.shards {
			all = append(all, sh.rec.Events()...)
		}
		trace.SortCanonical(all)
		for _, e := range all {
			rec.Record(e)
		}
	}
	for _, sh := range rs.shards {
		for _, id := range sh.crashed {
			rs.nw.Node(id).Failed = false
		}
	}
	return res
}
