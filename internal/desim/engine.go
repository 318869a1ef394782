// Package desim is a discrete-event, packet-level execution engine for
// the sensor network: an event queue, a CSMA/CA radio model with
// collisions, acknowledgements and retransmissions, and a convergecast
// that carries Iso-Map reports to the sink frame by frame.
//
// The structural simulation (internal/core's post-order delivery) charges
// costs without a notion of time or contention; desim executes the same
// collection as actual transmissions, validating the structural results
// and measuring what they cannot: real collection latency under
// contention, retry counts, and collision losses. The paper itself
// assumes a perfect link layer (Sec. 5); desim is the machinery to check
// how far from perfect a contended CSMA collection is.
//
// The production Engine keeps the hot path allocation-free: events are
// typed, fixed-size records on an index-addressed 4-ary heap whose
// record slots are recycled through a free-list, so scheduling a
// tx/rx/backoff/timer event never touches the garbage collector once the
// arena has warmed up. The tests keep the original closure-per-event
// implementation as the reference oracle (EngineNaive, in
// engine_naive_test.go); the equivalence property tests prove both
// execute identical schedules.
package desim

import "isomap/internal/network"

// EventKind tags a typed event with the action it triggers. The radio
// consumes the ev* link-layer kinds itself and forwards everything else
// to the upper layer registered with Radio.OnEvent.
type EventKind uint8

const (
	evNone EventKind = iota

	// Link-layer events, handled by Radio. Data-frame events address the
	// frame arena by slot (Arg) and validate against the frame's unique
	// sequence number (Seq): a recycled slot fails the check, so stale
	// events are ignored without a seq-to-slot lookup.
	// Every link-layer event also carries the owning node in Node and the
	// frame's globally unique sequence number in Seq: the (kind, node,
	// seq) triple is partition-invariant, which the intrinsic tie-break
	// (see less) relies on — arena slot numbers ride in Arg, where the
	// comparator provably never reaches them (seqs are unique).
	evBroadcastAttempt // Node: sender, Seq: frame seq, Arg: arena slot
	evAttempt          // Node: sender, Seq: frame seq, Arg: arena slot
	evAckTimeout       // Node: sender, Seq: frame seq, Arg: arena slot
	evFinishRx         // Node: receiving node
	evAckSend          // Node: acker, Seq: ack frame seq, Arg: arena slot
	evAckRetry         // Node: acker, Seq: ack frame seq, Arg: arena slot
	evPropagate        // Node: sender, Seq: frame seq, Arg: slot (>=0 local, -(slot+1) import)

	// Upper-layer events, handled by the round driver (roundShard).
	evFlush       // Node: node whose outbox flushes toward its parent
	evRequeue     // Node: original sender, Seq: dropped frame's seq, Arg: parked-batch slot
	evInject      // Node: source injecting its reports
	evRebroadcast // Node: node re-flooding the query
	evProbeStart  // Node: isoline candidate starting its probe
	evMeasure     // Node: candidate whose reply window closed
	evReplySend   // Node: probed neighbor, Seq: asking node
	evCrash       // Arg: index into the fault plan's crash schedule
	evDeltaRetire // Node: delta-mode node withdrawing its tracked reports
)

// Event is a typed, fixed-size event record: a kind tag, a target node
// and two small arguments whose meaning depends on the kind (documented
// at each kind constant). Events carry no pointers, so scheduling one
// allocates nothing and the queue is invisible to the garbage collector.
type Event struct {
	Kind EventKind
	Node network.NodeID
	Seq  int64
	Arg  int32
}

// EngineAPI is the scheduling surface shared by the sequential Engine and
// the ShardedEngine, letting the same radio and round code run on either.
// Its closure methods carry the round driver's cold control events; the
// test-only EngineNaive oracle implements it too.
type EngineAPI interface {
	// Now returns the current simulation time in seconds.
	Now() float64
	// Steps returns the number of events executed so far.
	Steps() int64
	// MaxQueueDepth returns the peak event-queue length observed.
	MaxQueueDepth() int
	// Schedule enqueues fn to run delay seconds from now (closure path:
	// cold control events and tests; allocates the closure).
	Schedule(delay float64, fn func())
	// ScheduleAt enqueues fn at absolute time t (clamped to now).
	ScheduleAt(t float64, fn func())
	// ScheduleEvent enqueues a typed event delay seconds from now; on the
	// production Engine this performs zero heap allocations.
	ScheduleEvent(delay float64, ev Event)
	// ScheduleEventAt enqueues a typed event at absolute time t.
	ScheduleEventAt(t float64, ev Event)
	// SetHandler installs the dispatcher typed events are delivered to.
	// It must be set before the first typed event fires.
	SetHandler(fn func(Event))
	// Run executes events until the queue drains, returning the final time.
	Run() float64
	// RunUntil executes events with timestamps <= deadline, advancing the
	// clock to the deadline. Later events stay queued.
	RunUntil(deadline float64)
}

var _ EngineAPI = (*Engine)(nil)

// evClosure is the internal kind marking a closure-fallback entry; the
// closure lives in the fns arena at index arg. It sits far above the
// exported kinds so upper layers can extend the EventKind space freely.
const evClosure EventKind = 0xff

// heapEnt is one heap entry: the ordering key (time, then the intrinsic
// event key — see less) followed by the typed event payload inlined
// field by field. Keeping the whole event in
// the 40-byte entry makes the queue a single pointer-free array: pushes
// and pops of typed events touch no side storage, emit no write barriers,
// and the sift comparisons stay within contiguous memory. The node is
// narrowed to int32 — node ids are dense indices well under 2^31.
type heapEnt struct {
	t     float64
	seq   int64
	evSeq int64 // Event.Seq
	node  int32 // Event.Node
	arg   int32 // Event.Arg, or the fns arena index for evClosure
	kind  EventKind
}

// fnRec is one closure-arena slot; freed slots chain through next.
type fnRec struct {
	fn   func()
	next int32
}

// Engine is a deterministic discrete-event scheduler. Events execute in
// the intrinsic (time, kind, node, seq, arg) order pinned by less — an
// insertion-order-independent total order among typed events, required
// by sharded execution; the queue is a 4-ary heap of self-contained
// 40-byte entries, so steady-state scheduling of typed events performs
// zero heap allocations and the queue is invisible to the garbage
// collector. Closure events (the cold path) park their func in a
// free-listed side arena referenced by index.
type Engine struct {
	now      float64
	seq      int64
	steps    int64
	handler  func(Event)
	fns      []fnRec
	free     int32 // head of the fns free-list, -1 when empty
	heap     []heapEnt
	maxDepth int
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// MaxQueueDepth returns the peak number of queued events observed.
func (e *Engine) MaxQueueDepth() int { return e.maxDepth }

// SetHandler installs the typed-event dispatcher.
func (e *Engine) SetHandler(fn func(Event)) { e.handler = fn }

// Schedule enqueues fn to run delay seconds from now. Non-positive delays
// run at the current time, after already-queued same-time events
// (insertion order is preserved among equal timestamps).
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.push(e.now+delay, fn, Event{})
}

// ScheduleAt enqueues fn at absolute time t (clamped to now).
func (e *Engine) ScheduleAt(t float64, fn func()) {
	e.push(t, fn, Event{})
}

// ScheduleEvent enqueues a typed event delay seconds from now with the
// same clamping as Schedule. It allocates nothing once the arena has
// warmed up.
func (e *Engine) ScheduleEvent(delay float64, ev Event) {
	if delay < 0 {
		delay = 0
	}
	e.push(e.now+delay, nil, ev)
}

// ScheduleEventAt enqueues a typed event at absolute time t (clamped to
// now).
func (e *Engine) ScheduleEventAt(t float64, ev Event) {
	e.push(t, nil, ev)
}

// push builds the self-contained entry (parking closures in the fns
// arena) and sifts it up the 4-ary heap.
func (e *Engine) push(t float64, fn func(), ev Event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ent := heapEnt{t: t, seq: e.seq}
	if fn != nil {
		var i int32
		if e.free >= 0 {
			i = e.free
			e.free = e.fns[i].next
		} else {
			e.fns = append(e.fns, fnRec{})
			i = int32(len(e.fns) - 1)
		}
		e.fns[i] = fnRec{fn: fn, next: -1}
		ent.kind = evClosure
		ent.arg = i
	} else {
		ent.kind = ev.Kind
		ent.node = int32(ev.Node)
		ent.evSeq = ev.Seq
		ent.arg = ev.Arg
	}
	e.heap = append(e.heap, ent)
	e.siftUp(len(e.heap) - 1)
	if len(e.heap) > e.maxDepth {
		e.maxDepth = len(e.heap)
	}
}

// less orders entries by the intrinsic event key: (time, kind, node,
// event seq, arg), falling back to insertion sequence only for full-key
// ties. This is the engine's tie-breaking contract: events scheduled at
// identical timestamps pop in a deterministic order that does NOT depend
// on insertion order, which is what lets sharded execution merge
// per-shard heaps — the same event set pops identically whether it was
// enqueued by one engine or by many, in any interleaving. Closure events
// (evClosure = 0xff) sort after every typed kind and among themselves by
// insertion sequence (their arg is an arena index, which is not stable
// across engines); typed events with byte-identical keys are required to
// be order-insensitive (handler-idempotent). The test-only EngineNaive
// implements the identical order, and the tie-break property tests pin
// both.
func less(a, b *heapEnt) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.kind != evClosure {
		if a.node != b.node {
			return a.node < b.node
		}
		if a.evSeq != b.evSeq {
			return a.evSeq < b.evSeq
		}
		if a.arg != b.arg {
			return a.arg < b.arg
		}
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 4
		if !less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// sinkHole moves the hole at the root down along the min-child path to a
// leaf and returns the leaf position. Combined with a siftUp of the
// displaced tail entry this is the bottom-up pop: it spends 3 comparisons
// per level instead of 4 (no compare against the moving element), and the
// tail entry — which almost always belongs near a leaf — rarely sifts
// more than a step back up.
func (e *Engine) sinkHole() int {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			return i
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for c++; c < end; c++ {
			if less(&h[c], &h[best]) {
				best = c
			}
		}
		h[i] = h[best]
		i = best
	}
}

// Run executes events until the queue drains, returning the final time.
func (e *Engine) Run() float64 {
	for len(e.heap) > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, advancing the
// clock to the deadline. Later events stay queued.
func (e *Engine) RunUntil(deadline float64) {
	for len(e.heap) > 0 && e.heap[0].t <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events with timestamps strictly before deadline and
// leaves the clock at the last executed event (it does NOT advance now to
// the deadline — a later window may still schedule work inside the gap).
// This is the sharded window step: each shard drains its heap up to the
// conservative lookahead horizon.
func (e *Engine) RunBefore(deadline float64) {
	for len(e.heap) > 0 && e.heap[0].t < deadline {
		e.step()
	}
}

// NextTime reports the timestamp of the earliest queued event, or false
// when the queue is empty.
func (e *Engine) NextTime() (float64, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].t, true
}

// step pops the minimum event and dispatches: closure events run their fn
// (recycling its arena slot first, so the handler can immediately reuse
// it), typed events are reassembled and handed to the handler.
func (e *Engine) step() {
	top := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		hole := e.sinkHole()
		e.heap[hole] = last
		e.siftUp(hole)
	}
	e.now = top.t
	e.steps++
	if top.kind == evClosure {
		i := top.arg
		fn := e.fns[i].fn
		e.fns[i] = fnRec{next: e.free}
		e.free = i
		fn()
		return
	}
	e.handler(Event{Kind: top.kind, Node: network.NodeID(top.node), Seq: top.evSeq, Arg: top.arg})
}
