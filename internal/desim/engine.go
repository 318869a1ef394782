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
// typed, fixed-size records queued as 16-byte keys in a monotone radix
// heap, with their payload in a free-listed side arena, so scheduling a
// tx/rx/backoff/timer event never touches the garbage collector once the
// buckets and the arena have warmed up. The tests keep the original
// closure-per-event implementation as the reference oracle (EngineNaive,
// in engine_naive_test.go); the equivalence property and fuzz tests
// prove both execute identical schedules.
package desim

import (
	"fmt"
	"math"
	"math/bits"

	"isomap/internal/network"
)

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
	// Every link-layer event also carries a node in Node (the owning
	// node; the sender for a completion batch) and the frame's globally
	// unique sequence number in Seq: the (kind, node, seq) triple is
	// partition-invariant, which the intrinsic tie-break (see less)
	// relies on — arena slot and batch numbers ride in Arg, where the
	// comparator provably never reaches them (seqs are unique).
	evBroadcastAttempt // Node: sender, Seq: frame seq, Arg: arena slot
	evAttempt          // Node: sender, Seq: frame seq, Arg: arena slot
	evAckTimeout       // Node: sender, Seq: frame seq, Arg: arena slot
	evFinishRx         // Node: sender, Seq: frame seq, Arg: completion batch; counts one event per armed receiver
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
	evReplySend   // Node: neighbour broadcasting its one probe reply of the round
	evCrash       // Arg: index into the fault plan's crash schedule
	evDeltaRetire // Node: delta-mode node withdrawing its tracked reports
	evWake        // Node: delta-mode node starting its round on its standing-query epoch timer
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
	// countSteps adds n to the executed-event count: a handler that runs
	// several events' work in one (a frame's completion batch) counts
	// each of them.
	countSteps(n int64)
	// Run executes events until the queue drains, returning the final time.
	Run() float64
	// RunUntil executes events with timestamps <= deadline, advancing the
	// clock to the deadline. Later events stay queued.
	RunUntil(deadline float64)
}

var _ EngineAPI = (*Engine)(nil)

// evClosure is the internal kind marking a closure-fallback entry; the
// closure lives in the fns arena at the payload's arg index. It sits far
// above the exported kinds so upper layers can extend the EventKind space
// freely.
const evClosure EventKind = 0xff

// maxNode bounds the node ids a typed event may carry: the node shares a
// 32-bit word with the kind in heapEnt.kn.
const maxNode = 1 << 24

// heapEnt is one queue entry: the 16-byte ordering key the radix buckets
// move around. tb is math.Float64bits of the event time, which orders
// like the time itself because push keeps every time >= +0. kn packs the
// kind above the node (kind<<24 | node), so one integer compare orders
// (kind, node). idx names the payload arena slot holding the rest of the
// event; the entry carries no pointers, so the queue is invisible to the
// garbage collector.
type heapEnt struct {
	tb  uint64
	kn  uint32
	idx uint32
}

// payload is one side-arena slot: the part of an event the bucket moves
// do not need. Freed slots chain through arg.
type payload struct {
	seq   int64 // insertion sequence, the last tie-break
	evSeq int64 // Event.Seq
	arg   int32 // Event.Arg, or the fns arena index for evClosure
}

// fnRec is one closure-arena slot; freed slots chain through next.
type fnRec struct {
	fn   func()
	next int32
}

// Engine is a deterministic discrete-event scheduler. Events execute in
// the intrinsic (time, kind, node, seq, arg) order pinned by less, with
// insertion order last — an insertion-order-independent total order
// among typed events, required by sharded execution.
//
// The queue is a monotone radix heap. push never schedules before now,
// so no key is ever below last, the key of the most recent pop. An entry
// sits in buckets[b], where b is the bit length of key XOR last: bucket
// b > 0 holds keys whose highest bit differing from last is bit b-1, so
// every key in a lower bucket is smaller than every key in a higher one.
// No key has the sign bit set, so b never reaches 64. Pushing is an
// append. Only bucket 0, the entries due exactly at last, is ordered: it
// is a 4-ary heap on less. When it empties, a pop moves last to the
// minimum of the lowest non-empty bucket and redistributes that bucket
// into strictly lower ones, so an entry moves at most 63 times over its
// life. Peeking (NextTime, and the window checks of RunUntil
// and RunBefore) never moves last: a sharded mailbox drain may push
// events into [now, NextTime()) between windows, and those keys must
// still be >= last.
//
// Steady-state scheduling of typed events performs zero heap
// allocations. Closure events (the cold path) park their func in a
// free-listed side arena referenced by the payload.
type Engine struct {
	now      float64
	seq      int64
	steps    int64
	handler  func(Event)
	fns      []fnRec
	free     int32 // head of the fns free-list, -1 when empty
	pay      []payload
	payFree  int32  // head of the payload free-list, -1 when empty
	last     uint64 // key of the last popped event: the radix base
	buckets  [64][]heapEnt
	occupied uint64 // bit b set when buckets[b] (b > 0) is non-empty
	n        int    // queued events
	maxDepth int
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{free: -1, payFree: -1}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// MaxQueueDepth returns the peak number of queued events observed.
func (e *Engine) MaxQueueDepth() int { return e.maxDepth }

func (e *Engine) countSteps(n int64) { e.steps += n }

// queued returns the number of events waiting in the queue.
func (e *Engine) queued() int { return e.n }

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

// push normalises the time into a radix key, parks the payload (and a
// closure) in the side arenas and files the 16-byte entry in its bucket.
// A NaN time, or a typed event whose node does not fit the packed key,
// panics: either would silently break the queue's total order.
func (e *Engine) push(t float64, fn func(), ev Event) {
	if t != t {
		panic("desim: event scheduled at NaN time")
	}
	if t < e.now {
		t = e.now
	}
	if t == 0 {
		t = 0 // Float64bits(-0) would sort after every positive time
	}
	e.seq++
	var i int32
	if e.payFree >= 0 {
		i = e.payFree
		e.payFree = e.pay[i].arg
	} else {
		e.pay = append(e.pay, payload{})
		i = int32(len(e.pay) - 1)
	}
	ent := heapEnt{tb: math.Float64bits(t), idx: uint32(i)}
	if fn != nil {
		var j int32
		if e.free >= 0 {
			j = e.free
			e.free = e.fns[j].next
		} else {
			e.fns = append(e.fns, fnRec{})
			j = int32(len(e.fns) - 1)
		}
		e.fns[j] = fnRec{fn: fn, next: -1}
		ent.kn = uint32(evClosure) << 24
		e.pay[i] = payload{seq: e.seq, arg: j}
	} else {
		if uint(ev.Node) >= maxNode {
			panic(fmt.Sprintf("desim: event node %d outside [0, 2^24)", ev.Node))
		}
		ent.kn = uint32(ev.Kind)<<24 | uint32(ev.Node)
		e.pay[i] = payload{seq: e.seq, evSeq: ev.Seq, arg: ev.Arg}
	}
	e.file(ent)
	e.n++
	if e.n > e.maxDepth {
		e.maxDepth = e.n
	}
}

// file puts an entry with key >= last into its bucket.
func (e *Engine) file(x heapEnt) {
	b := bits.Len64(x.tb ^ e.last)
	e.buckets[b] = append(e.buckets[b], x)
	if b == 0 {
		e.siftUp(len(e.buckets[0]) - 1)
		return
	}
	e.occupied |= 1 << b
}

// less orders two entries of bucket 0 — which share their time — by the
// rest of the intrinsic event key: (kind, node, event seq, arg), falling
// back to insertion sequence only for full-key ties. With the time
// compare the buckets already made, this is the engine's tie-breaking
// contract: events scheduled at identical timestamps pop in a
// deterministic order that does NOT depend on insertion order, which is
// what lets sharded execution merge per-shard queues — the same event set
// pops identically whether it was enqueued by one engine or by many, in
// any interleaving. Closure events (evClosure = 0xff) sort after every
// typed kind and among themselves by insertion sequence (their arg is an
// arena index, which is not stable across engines); typed events with
// byte-identical keys are required to be order-insensitive
// (handler-idempotent). The test-only EngineNaive implements the
// identical order, and the tie-break property tests pin both.
func (e *Engine) less(a, b *heapEnt) bool {
	if a.kn != b.kn {
		return a.kn < b.kn
	}
	pa, pb := &e.pay[a.idx], &e.pay[b.idx]
	if EventKind(a.kn>>24) != evClosure {
		if pa.evSeq != pb.evSeq {
			return pa.evSeq < pb.evSeq
		}
		if pa.arg != pb.arg {
			return pa.arg < pb.arg
		}
	}
	return pa.seq < pb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.buckets[0]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// sinkHole moves the hole at the root of bucket 0 down along the
// min-child path to a leaf and returns the leaf position. Combined with a
// siftUp of the displaced tail entry this is the bottom-up pop: 3
// comparisons per level instead of 4.
func (e *Engine) sinkHole() int {
	h := e.buckets[0]
	n := len(h)
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			return i
		}
		end := min(c+4, n)
		best := c
		for c++; c < end; c++ {
			if e.less(&h[c], &h[best]) {
				best = c
			}
		}
		h[i] = h[best]
		i = best
	}
}

// peek returns the lowest non-empty bucket and the smallest key queued,
// without moving last. The queue must not be empty.
func (e *Engine) peek() (b int, key uint64) {
	if len(e.buckets[0]) > 0 {
		return 0, e.last
	}
	b = bits.TrailingZeros64(e.occupied)
	key = math.MaxUint64
	for _, x := range e.buckets[b] {
		key = min(key, x.tb)
	}
	return b, key
}

// refill makes key, the minimum found by peek in bucket b > 0, the new
// radix base and redistributes bucket b: its entries due at key land in
// bucket 0, the rest in buckets below b. Only a pop may follow it.
func (e *Engine) refill(b int, key uint64) {
	e.last = key
	src := e.buckets[b]
	e.buckets[b] = src[:0]
	e.occupied &^= 1 << b
	for _, x := range src {
		e.file(x)
	}
}

// Run executes events until the queue drains, returning the final time.
func (e *Engine) Run() float64 {
	for e.n > 0 {
		e.step(e.peek())
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, advancing the
// clock to the deadline. Later events stay queued.
func (e *Engine) RunUntil(deadline float64) {
	for e.n > 0 {
		b, key := e.peek()
		if !(math.Float64frombits(key) <= deadline) {
			break
		}
		e.step(b, key)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events with timestamps strictly before deadline and
// leaves the clock at the last executed event (it does NOT advance now to
// the deadline — a later window may still schedule work inside the gap).
// This is the sharded window step: each shard drains its queue up to the
// conservative lookahead horizon.
func (e *Engine) RunBefore(deadline float64) {
	for e.n > 0 {
		b, key := e.peek()
		if !(math.Float64frombits(key) < deadline) {
			break
		}
		e.step(b, key)
	}
}

// NextTime reports the timestamp of the earliest queued event, or false
// when the queue is empty. It leaves the queue untouched.
func (e *Engine) NextTime() (float64, bool) {
	if e.n == 0 {
		return 0, false
	}
	_, key := e.peek()
	return math.Float64frombits(key), true
}

// step pops the minimum event, whose bucket and key peek just returned,
// and dispatches it: closure events run their fn (recycling its arena
// slots first, so the handler can immediately reuse them), typed events
// are reassembled and handed to the handler.
func (e *Engine) step(b int, key uint64) {
	if b > 0 {
		e.refill(b, key)
	}
	h := e.buckets[0]
	top := h[0]
	n := len(h) - 1
	tail := h[n]
	e.buckets[0] = h[:n]
	if n > 0 {
		hole := e.sinkHole()
		h[hole] = tail
		e.siftUp(hole)
	}
	e.n--
	p := e.pay[top.idx]
	e.pay[top.idx].arg = e.payFree
	e.payFree = int32(top.idx)
	e.now = math.Float64frombits(key)
	e.steps++
	kind := EventKind(top.kn >> 24)
	if kind == evClosure {
		fn := e.fns[p.arg].fn
		e.fns[p.arg] = fnRec{next: e.free}
		e.free = p.arg
		fn()
		return
	}
	e.handler(Event{Kind: kind, Node: network.NodeID(top.kn & (maxNode - 1)), Seq: p.evSeq, Arg: p.arg})
}
