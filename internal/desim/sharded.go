package desim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"isomap/internal/network"
)

// ShardedEngine runs one Engine per spatial shard of a deployment,
// synchronized by conservative lookahead windows: all shards execute
// their events inside [T0, T0+W) in parallel (T0 the earliest pending
// event anywhere, W the lookahead window — the radio's propagation
// delay), then meet at a barrier where cross-shard effects produced
// during the window are exchanged. Because no transmission can touch
// another shard sooner than one propagation delay after it starts, every
// exchanged event lands at or beyond the next window — no shard ever
// receives an event in its past, so no rollback is needed and the merged
// execution is byte-identical to a single-engine run (the intrinsic
// event order pinned by less makes per-shard pop order match the global
// one).
//
// ShardedEngine implements EngineAPI for setup-time scheduling: typed
// events route to the owning node's shard, closures to shard 0. During
// the run, handlers execute on their shard's own Engine and must
// schedule there (the radio and round layers are built that way); the
// facade is not for use from inside handlers.
type ShardedEngine struct {
	engines []*Engine
	part    *network.Partition
	window  float64
	workers int
	hooks   []func()
	// phantoms counts mailed cross-shard propagate events: bookkeeping
	// duplicates of work a single engine performs inside one event, so
	// Steps subtracts them to stay comparable.
	phantoms int64
	// active reuses the per-window list of shard indices with work.
	active []int32
}

var _ EngineAPI = (*ShardedEngine)(nil)

// NewShardedEngine builds an engine per shard of the partition. workers
// bounds the goroutines executing windows in parallel; 0 selects
// GOMAXPROCS. workers=1 runs windows sequentially (useful to separate
// determinism from parallelism in tests).
func NewShardedEngine(part *network.Partition, workers int) *ShardedEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	engines := make([]*Engine, part.K)
	for i := range engines {
		engines[i] = NewEngine()
	}
	return &ShardedEngine{engines: engines, part: part, workers: workers}
}

// Shard returns shard i's engine.
func (se *ShardedEngine) Shard(i int) *Engine { return se.engines[i] }

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.engines) }

// ShardOf returns the shard owning node id (shard 0 for synthetic
// addresses like the broadcast pseudo-node).
func (se *ShardedEngine) ShardOf(id network.NodeID) int {
	if id < 0 || int(id) >= len(se.part.Shard) {
		return 0
	}
	return int(se.part.Shard[id])
}

// Partition exposes the partition the engine was built over.
func (se *ShardedEngine) Partition() *network.Partition { return se.part }

// OnBarrier registers fn to run single-threaded before every window
// (after all shards blocked on the previous one): the radio group's mail
// drain and border-state publication.
func (se *ShardedEngine) OnBarrier(fn func()) { se.hooks = append(se.hooks, fn) }

// setWindow fixes the lookahead window (the radio's propagation delay).
// Zero means "no cross-shard coupling": a single unbounded window.
func (se *ShardedEngine) setWindow(w float64) { se.window = w }

// SetLookahead sets the synchronization window explicitly — for direct
// engine-level use without a radio (tests); newShardedRadios sets it
// from the radio config otherwise.
func (se *ShardedEngine) SetLookahead(w float64) { se.setWindow(w) }

// scheduleMailed enqueues a barrier-drained cross-shard event on shard d
// and counts it as a phantom.
func (se *ShardedEngine) scheduleMailed(d int32, t float64, ev Event) {
	se.engines[d].ScheduleEventAt(t, ev)
	se.phantoms++
}

// CountPhantom adjusts the phantom-event count by k (for layers that
// schedule their own bookkeeping events on shard engines).
func (se *ShardedEngine) CountPhantom(k int64) { se.phantoms += k }

// countSteps is EngineAPI's event count adjustment; handlers run on the
// shard engines, so the facade books it against the phantoms.
func (se *ShardedEngine) countSteps(n int64) { se.phantoms -= n }

// Now returns the latest shard clock — meaningful at setup (zero) and
// after Run (the final time).
func (se *ShardedEngine) Now() float64 {
	t := 0.0
	for _, e := range se.engines {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Steps returns the events executed across all shards, net of the
// phantom cross-shard duplicates — equal to the single-engine count for
// the same workload.
func (se *ShardedEngine) Steps() int64 {
	var s int64
	for _, e := range se.engines {
		s += e.Steps()
	}
	return s - se.phantoms
}

// MaxQueueDepth returns the deepest per-shard queue observed.
func (se *ShardedEngine) MaxQueueDepth() int {
	d := 0
	for _, e := range se.engines {
		if e.MaxQueueDepth() > d {
			d = e.MaxQueueDepth()
		}
	}
	return d
}

// Schedule enqueues a closure on shard 0 (setup-time control events; use
// Shard(i).Schedule to place one deliberately).
func (se *ShardedEngine) Schedule(delay float64, fn func()) { se.engines[0].Schedule(delay, fn) }

// ScheduleAt enqueues a closure on shard 0 at absolute time t.
func (se *ShardedEngine) ScheduleAt(t float64, fn func()) { se.engines[0].ScheduleAt(t, fn) }

// ScheduleEvent routes a typed event to the owning node's shard.
func (se *ShardedEngine) ScheduleEvent(delay float64, ev Event) {
	se.engines[se.ShardOf(ev.Node)].ScheduleEvent(delay, ev)
}

// ScheduleEventAt routes a typed event to the owning node's shard at
// absolute time t.
func (se *ShardedEngine) ScheduleEventAt(t float64, ev Event) {
	se.engines[se.ShardOf(ev.Node)].ScheduleEventAt(t, ev)
}

// SetHandler installs fn on every shard engine. The radio layer installs
// per-shard handlers directly instead.
func (se *ShardedEngine) SetHandler(fn func(Event)) {
	for _, e := range se.engines {
		e.SetHandler(fn)
	}
}

// nextTime returns the earliest pending event time across shards.
func (se *ShardedEngine) nextTime() float64 {
	t0 := math.Inf(1)
	for _, e := range se.engines {
		if t, ok := e.NextTime(); ok && t < t0 {
			t0 = t
		}
	}
	return t0
}

// Run executes windows until every shard queue and mailbox drains,
// returning the final time.
func (se *ShardedEngine) Run() float64 {
	for {
		for _, h := range se.hooks {
			h()
		}
		t0 := se.nextTime()
		if math.IsInf(t0, 1) {
			break
		}
		w := se.window
		if w <= 0 {
			w = math.Inf(1)
		}
		se.runWindow(t0 + w)
	}
	end := 0.0
	for _, e := range se.engines {
		if e.Now() > end {
			end = e.Now()
		}
	}
	return end
}

// RunUntil executes events with timestamps <= deadline, advancing every
// shard clock to the deadline. Later events stay queued (cross-shard
// effects of the last partial window are conservatively deferred to the
// next Run/RunUntil call's first barrier).
func (se *ShardedEngine) RunUntil(deadline float64) {
	for {
		for _, h := range se.hooks {
			h()
		}
		t0 := se.nextTime()
		if t0 > deadline {
			break
		}
		w := se.window
		if w <= 0 {
			w = math.Inf(1)
		}
		t1 := t0 + w
		if t1 > deadline {
			// Final partial window: everything up to and including the
			// deadline is safe to run — effects produced at t <= deadline
			// land at t+W > deadline and stay queued.
			se.runWindowUntil(deadline)
			break
		}
		se.runWindow(t1)
	}
	for _, e := range se.engines {
		e.RunUntil(deadline)
	}
}

// collectActive gathers the shards with events strictly before t1.
func (se *ShardedEngine) collectActive(t1 float64) []int32 {
	se.active = se.active[:0]
	for i, e := range se.engines {
		if t, ok := e.NextTime(); ok && t < t1 {
			se.active = append(se.active, int32(i))
		}
	}
	return se.active
}

// runWindow drains every shard's events strictly before t1, in parallel
// up to the worker bound. Work-stealing is a simple atomic cursor over
// the shards that actually have events in the window.
func (se *ShardedEngine) runWindow(t1 float64) {
	active := se.collectActive(t1)
	if len(active) == 0 {
		return
	}
	w := min(se.workers, len(active))
	if w <= 1 {
		for _, i := range active {
			se.engines[i].RunBefore(t1)
		}
		return
	}
	var cursor atomic.Int64
	cursor.Store(-1)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				j := cursor.Add(1)
				if j >= int64(len(active)) {
					return
				}
				se.engines[active[j]].RunBefore(t1)
			}
		}()
	}
	wg.Wait()
}

// runWindowUntil is runWindow with an inclusive deadline (RunUntil's
// final partial window).
func (se *ShardedEngine) runWindowUntil(deadline float64) {
	active := se.collectActive(math.Nextafter(deadline, math.Inf(1)))
	if len(active) == 0 {
		return
	}
	w := min(se.workers, len(active))
	if w <= 1 {
		for _, i := range active {
			se.engines[i].RunUntil(deadline)
		}
		return
	}
	var cursor atomic.Int64
	cursor.Store(-1)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				j := cursor.Add(1)
				if j >= int64(len(active)) {
					return
				}
				se.engines[active[j]].RunUntil(deadline)
			}
		}()
	}
	wg.Wait()
}
