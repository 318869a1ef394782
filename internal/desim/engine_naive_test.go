package desim

import "container/heap"

var _ EngineAPI = (*EngineNaive)(nil)

// EngineNaive is the original closure-per-event scheduler, retained as
// the test-only reference oracle for the allocation-light Engine —
// mirroring the geom.VoronoiNaive pattern — with the NextTime/RunBefore
// window surface added so windowed schedules can be compared too. It deliberately keeps
// the pre-change implementation character (a closure per event,
// container/heap with boxed records) so BenchmarkFullRoundNaive measures
// the production engine against the code this package shipped with; typed
// events are adapted onto the closure path, costing the same closure +
// interface box the original code paid at every call site. Event ordering
// is the same intrinsic total order the production Engine uses (see less
// in engine.go), so both engines execute byte-identical schedules — the
// equivalence property tests pin that.
type EngineNaive struct {
	now      float64
	seq      int64
	queue    naiveEventHeap
	steps    int64
	handler  func(Event)
	maxDepth int
}

type naiveEvent struct {
	t     float64
	seq   int64
	evSeq int64
	node  int32
	arg   int32
	kind  EventKind
	fn    func()
}

type naiveEventHeap []naiveEvent

func (h naiveEventHeap) Len() int { return len(h) }

// Less mirrors the production engine's intrinsic tie-break (see less in
// engine.go): (time, kind, node, event seq, arg), insertion sequence only
// for full-key ties and among closures.
func (h naiveEventHeap) Less(i, j int) bool {
	a, b := &h[i], &h[j]
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
func (h naiveEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *naiveEventHeap) Push(x any)   { *h = append(*h, x.(naiveEvent)) }
func (h *naiveEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewEngineNaive returns an empty reference engine at time zero.
func NewEngineNaive() *EngineNaive {
	return &EngineNaive{}
}

// Now returns the current simulation time in seconds.
func (e *EngineNaive) Now() float64 { return e.now }

// Steps returns the number of events executed so far.
func (e *EngineNaive) Steps() int64 { return e.steps }

// MaxQueueDepth returns the peak number of queued events observed.
func (e *EngineNaive) MaxQueueDepth() int { return e.maxDepth }

func (e *EngineNaive) countSteps(n int64) { e.steps += n }

// SetHandler installs the typed-event dispatcher.
func (e *EngineNaive) SetHandler(fn func(Event)) { e.handler = fn }

// Schedule enqueues fn to run delay seconds from now. Non-positive delays
// run at the current time, after already-queued same-time events
// (insertion order is preserved among equal timestamps).
func (e *EngineNaive) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt enqueues fn at absolute time t (clamped to now).
func (e *EngineNaive) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, naiveEvent{t: t, seq: e.seq, kind: evClosure, fn: fn})
	if len(e.queue) > e.maxDepth {
		e.maxDepth = len(e.queue)
	}
}

// ScheduleEvent adapts a typed event onto the closure path: the event is
// captured in a closure that dispatches it to the handler, paying the
// per-event allocation the production Engine eliminates. The event's key
// fields are stored alongside so the heap orders it exactly as the
// production engine would.
func (e *EngineNaive) ScheduleEvent(delay float64, ev Event) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleEventAt(e.now+delay, ev)
}

// ScheduleEventAt is ScheduleEvent at an absolute time.
func (e *EngineNaive) ScheduleEventAt(t float64, ev Event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, naiveEvent{
		t: t, seq: e.seq,
		evSeq: ev.Seq, node: int32(ev.Node), arg: ev.Arg, kind: ev.Kind,
		fn: func() { e.handler(ev) },
	})
	if len(e.queue) > e.maxDepth {
		e.maxDepth = len(e.queue)
	}
}

// Run executes events until the queue drains, returning the final time.
func (e *EngineNaive) Run() float64 {
	for e.queue.Len() > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, advancing the
// clock to the deadline. Later events stay queued.
func (e *EngineNaive) RunUntil(deadline float64) {
	for e.queue.Len() > 0 && e.queue[0].t <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events with timestamps strictly before deadline and
// leaves the clock at the last executed event.
func (e *EngineNaive) RunBefore(deadline float64) {
	for e.queue.Len() > 0 && e.queue[0].t < deadline {
		e.step()
	}
}

// NextTime reports the timestamp of the earliest queued event, or false
// when the queue is empty.
func (e *EngineNaive) NextTime() (float64, bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue[0].t, true
}

func (e *EngineNaive) step() {
	ev := heap.Pop(&e.queue).(naiveEvent)
	e.now = ev.t
	e.steps++
	ev.fn()
}
