// Package trace is the round observability layer: a zero-overhead-when-
// disabled structured event recorder threaded through the packet engine
// (internal/desim) and the sink reconstruction path (internal/contour).
//
// The aggregate numbers the evaluation reports — traffic in KB, per-node
// ops, map fidelity — say nothing about what happened *inside* a round:
// which phase dropped a frame, when a node re-parented, where the energy
// went. A Recorder captures exactly that as typed events keyed by node
// and simulated time, ring-buffered into preallocated storage so the hot
// path performs zero heap allocations per event (pinned by an
// AllocsPerRun test, like the engine it observes).
//
// The layer has three consumers:
//
//   - humans: Recorder.WriteJSONL serializes a deterministic JSONL trace
//     (cmd/isomapsim -roundtrace / -diag) for offline inspection;
//   - reports: Summarize aggregates per-phase breakdowns (perfbench's
//     traced run, cmd/isomapsim's published round counters);
//   - tests: Check runs an invariant pass over a recorded trace — frame
//     conservation, re-parent level monotonicity, crash finality, sink
//     report accounting — turning round-internal correctness into
//     assertable properties.
//
// Disabled-path guarantee: a nil *Recorder is valid everywhere and every
// emission site is behind a nil check. Recording never draws randomness,
// never schedules events and never mutates simulation state, so a traced
// round is byte-identical to an untraced one in every output.
package trace

// Kind tags what happened. The link-layer kinds mirror the emission
// points of desim.Radio one to one (each Kind*-documented counter in
// RadioStats has a matching event stream), the round kinds come from the
// full-round protocol driver, and KindSinkStage carries wall-clock stage
// timings of the sink-side reconstruction.
type Kind uint8

const (
	KindNone Kind = iota

	// Link layer (desim.Radio).
	KindSend      // unicast data frame entered the link layer (Node -> Peer)
	KindTx        // physical transmission: first tx, retransmission, ack, broadcast
	KindRx        // physical reception charged at Node (acks and duplicates included)
	KindDeliver   // exactly-once upper-layer delivery at Node
	KindAck       // sender Node saw the ack for Seq: the frame succeeded
	KindDrop      // sender Node abandoned Seq (Cause: retries or deadline)
	KindDead      // pending frame died with its crashed sender
	KindBackoff   // carrier-sense backoff (Arg: retry/try count so far)
	KindRetry     // ack timeout expired, retransmission scheduled (Arg: retry #)
	KindCollision // a reception at Node was corrupted by overlap
	KindChanLoss  // the injected channel erased Seq on the link Node -> Peer

	// Round protocol (desim.RunRound).
	KindCrash      // Node was killed by the fault plan
	KindReparent   // Node re-attached to Peer (Seq: old parent; Arg: packed levels)
	KindSevered    // Node lost every alive upward neighbor
	KindQueryHeard // Node received the flooded query for the first time
	KindGenerate   // Node produced Arg isoline reports after regression
	KindSinkReport // Arg fresh reports were accepted at the sink
	KindRequeue    // a dropped batch of Arg reports re-entered Node's outbox
	KindRoundEnd   // round drained; Seq: reports delivered at the sink

	// Sink reconstruction (contour). T is meaningless here — the round is
	// over; DurNs carries the wall-clock stage duration instead.
	KindSinkStage // Arg: Stage id; Seq: isolevel index or -1

	// Delta-report monitoring (desim delta mode + monitor.AgedMap).
	KindCrossing  // Node detected a level transit and reports (Arg: level index)
	KindSuppress  // Node stayed on its isoline; report withheld (Arg: level index)
	KindAgeExpire // sink aged out a stale report (Node: source; Arg: level index); post-round, T is 0

	// Standing query (desim delta mode): Node holds the query from an
	// earlier flood and starts its round on its epoch timer instead of
	// hearing a flood this round.
	KindWake

	kindCount // number of kinds, for aggregation arrays
)

var kindNames = [...]string{
	KindNone:       "none",
	KindSend:       "send",
	KindTx:         "tx",
	KindRx:         "rx",
	KindDeliver:    "deliver",
	KindAck:        "ack",
	KindDrop:       "drop",
	KindDead:       "dead",
	KindBackoff:    "backoff",
	KindRetry:      "retry",
	KindCollision:  "collision",
	KindChanLoss:   "chanloss",
	KindCrash:      "crash",
	KindReparent:   "reparent",
	KindSevered:    "severed",
	KindQueryHeard: "queryheard",
	KindGenerate:   "generate",
	KindSinkReport: "sinkreport",
	KindRequeue:    "requeue",
	KindRoundEnd:   "roundend",
	KindSinkStage:  "sinkstage",
	KindCrossing:   "crossing",
	KindSuppress:   "suppress",
	KindAgeExpire:  "age-expire",
	KindWake:       "wake",
}

// String returns the canonical lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Phase classifies an event into the protocol phase its frame belongs
// to: the query flood, the probe/measure exchange, the report
// convergecast, or pure link-layer machinery (acks).
type Phase uint8

const (
	PhaseNone Phase = iota
	PhaseQuery
	PhaseMeasure
	PhaseCollect
	PhaseLink

	phaseCount
)

var phaseNames = [...]string{
	PhaseNone:    "none",
	PhaseQuery:   "query",
	PhaseMeasure: "measure",
	PhaseCollect: "collect",
	PhaseLink:    "link",
}

// String returns the canonical lowercase name of the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseTx is one phase's transmit tally: physical transmissions
// (retries and acks included) and their bytes.
type PhaseTx struct {
	Frames int64
	Bytes  int64
}

// Ledger is a round's transmit tally per protocol phase, indexed by
// Phase. desim's radio keeps it on every round, recorder or not, at the
// same point it charges transmit energy, so it equals the Tx/TxBytes of
// the traced round's Summary phases.
type Ledger [phaseCount]PhaseTx

// Add tallies one transmission of bytes in phase p.
func (l *Ledger) Add(p Phase, bytes int) {
	l[p].Frames++
	l[p].Bytes += int64(bytes)
}

// Cause refines KindDrop/KindDead events with why the frame was
// abandoned.
type Cause uint8

const (
	CauseNone     Cause = iota
	CauseRetries        // MaxRetries exhausted
	CauseDeadline       // FrameDeadline exceeded
	CauseSenderDead
)

var causeNames = [...]string{
	CauseNone:       "",
	CauseRetries:    "retries",
	CauseDeadline:   "deadline",
	CauseSenderDead: "senderdead",
}

// String returns the canonical lowercase name of the cause ("" for none).
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// Stage identifies a sink-side reconstruction stage (KindSinkStage.Arg).
type Stage int32

const (
	StageVoronoi  Stage = iota // Voronoi diagram of one isolevel's sites
	StageChords                // type-1 chord clipping
	StageRegulate              // Rules 1-2 regulation
	StageRaster                // scanline raster sweep

	stageCount
)

var stageNames = [...]string{
	StageVoronoi:  "voronoi",
	StageChords:   "chords",
	StageRegulate: "regulate",
	StageRaster:   "raster",
}

// String returns the canonical lowercase name of the stage.
func (s Stage) String() string {
	if s >= 0 && int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Event is one recorded happening: a fixed-size, pointer-free record so
// the ring buffer is a single flat array the garbage collector never
// scans. Field meaning varies with Kind (documented at each constant);
// unused fields are zero (Node/Peer use -1 for "no node").
type Event struct {
	// T is the simulated time in seconds (0 for KindSinkStage, which
	// happens after the simulated round).
	T float64
	// DurNs is the wall-clock duration in nanoseconds (KindSinkStage
	// only).
	DurNs int64
	// Seq is the frame sequence number, or an auxiliary id.
	Seq int64
	// Node is the primary node (-1 when not applicable).
	Node int32
	// Peer is the counterpart node: destination, source, or new parent.
	Peer int32
	// Bytes is the frame size on the air.
	Bytes int32
	// Arg carries a kind-specific small integer (retry count, report
	// count, packed levels, stage id).
	Arg int32
	// Kind tags the event; Phase and Cause refine it.
	Kind  Kind
	Phase Phase
	Cause Cause
	// FrameKind is the raw desim.FrameKind of the frame involved.
	FrameKind uint8
}

// PackLevels packs a re-parenting node's own BFS level and its new
// parent's level into KindReparent.Arg.
func PackLevels(childLevel, newParentLevel int) int32 {
	return int32(childLevel)<<16 | int32(newParentLevel&0xffff)
}

// UnpackLevels reverses PackLevels.
func UnpackLevels(arg int32) (childLevel, newParentLevel int) {
	return int(uint32(arg) >> 16), int(arg & 0xffff)
}

// DefaultCapacity is the ring size NewRecorder picks for capacity <= 0:
// large enough to hold a complete n=1k full round with headroom.
const DefaultCapacity = 1 << 20

// Recorder captures events into a preallocated ring. When the ring
// fills, the oldest events are overwritten and counted in Dropped; size
// the capacity to the round when a complete trace is required (Check
// refuses truncated traces).
//
// A nil *Recorder is a valid disabled recorder: Record is a no-op and
// the query methods return zeros. A Recorder is not safe for concurrent
// use — one recorder per simulated round, like the engine it observes.
type Recorder struct {
	buf []Event
	n   int64 // events ever recorded
}

// NewRecorder returns a recorder with the given ring capacity
// (DefaultCapacity when capacity <= 0). The ring is allocated up front;
// Record never allocates.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Record appends an event. It is the hot path: no allocation, no branch
// beyond the ring wrap, and safe on a nil receiver so emission sites
// stay a plain nil check away from free.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.buf[r.n%int64(len(r.buf))] = ev
	r.n++
}

// Len returns the number of events currently held (at most the ring
// capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.n < int64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded, including
// overwritten ones.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns the number of events lost to ring overwrite.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	if d := r.n - int64(len(r.buf)); d > 0 {
		return d
	}
	return 0
}

// Capacity returns the ring capacity.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Events returns the held events in recording order as a fresh slice
// (cold path; allocates).
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	if r.n <= int64(len(r.buf)) {
		out := make([]Event, r.n)
		copy(out, r.buf[:r.n])
		return out
	}
	out := make([]Event, len(r.buf))
	head := int(r.n % int64(len(r.buf))) // oldest event
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}

// Reset empties the recorder, keeping its ring storage.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.n = 0
}
