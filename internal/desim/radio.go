package desim

import (
	"fmt"
	"math"

	"isomap/internal/core"
	"isomap/internal/energy"
	"isomap/internal/faults"
	"isomap/internal/metrics"
	"isomap/internal/network"
	"isomap/internal/trace"
)

// RadioConfig parameterizes the CSMA/CA link layer.
type RadioConfig struct {
	// BitsPerSecond is the radio bitrate (default: the Mica2 CC1000 rate).
	BitsPerSecond float64
	// AckBytes is the acknowledgement frame size.
	AckBytes int
	// SlotTime is the backoff quantum in seconds.
	SlotTime float64
	// MaxRetries bounds retransmissions per frame before it is dropped.
	MaxRetries int
	// FrameDeadline, when positive, abandons a data frame once it has
	// been pending longer than this many seconds — even with retries
	// left — so sustained outages (a crashed parent, a long loss burst)
	// surface as a bounded-latency drop the upper layer can react to
	// instead of an open-ended retry tail. Zero disables the deadline.
	FrameDeadline float64
	// PropagationDelay is the latency between the start of a transmission
	// and its effect at receivers: carrier becomes sensable, receptions
	// begin, and a node's death becomes observable to its neighbors only
	// PropagationDelay seconds after the fact. It is the physical
	// lookahead sharded execution synchronizes on — a frame sent in one
	// shard cannot touch another shard sooner than this — so it must be
	// positive; zero or negative selects SlotTime.
	PropagationDelay float64
	// Seed drives the backoff jitter.
	Seed int64
}

// DefaultRadioConfig returns a CC1000-like configuration: 38.4 kbps, 2-byte
// acks, ~1 ms backoff slots, 12 retries, a one-slot propagation delay.
func DefaultRadioConfig() RadioConfig {
	return RadioConfig{
		BitsPerSecond: energy.RadioBitsPerSecond,
		AckBytes:      2,
		SlotTime:      1e-3,
		MaxRetries:    12,
		Seed:          1,
	}
}

// normalized resolves defaulted fields.
func (cfg RadioConfig) normalized() RadioConfig {
	if cfg.PropagationDelay <= 0 {
		cfg.PropagationDelay = cfg.SlotTime
	}
	return cfg
}

// FrameKind tags the concrete payload representation a frame carries,
// replacing the former `Payload any` box: every payload the protocols
// exchange has a dedicated field, so handing a frame around allocates
// nothing.
type FrameKind uint8

const (
	// FrameRaw carries no payload semantics (link-layer tests).
	FrameRaw FrameKind = iota
	// FrameReports carries a report batch in Frame.Batch.
	FrameReports
	// FrameQuery is the flooded contour query.
	FrameQuery
	// FrameProbe is an isoline candidate's neighborhood probe, broadcast
	// by the probing node (Frame.From).
	FrameProbe
	// FrameReply is a neighbor's <value, position> in Frame.Sample: one
	// unacknowledged broadcast per node per round, armed by the first
	// probe it hears and kept by every listening candidate in range.
	FrameReply
)

// Frame is one link-layer data unit.
type Frame struct {
	From  network.NodeID
	To    network.NodeID
	Bytes int
	// Kind selects which payload field below is meaningful.
	Kind FrameKind
	// Batch is the report batch of FrameReports frames. The slice is
	// owned by the radio from Send until the frame is acknowledged or
	// dropped, then recycled into an internal pool: senders must not
	// retain or reuse it, and OnDrop handlers that want to keep the
	// batch past the callback must copy it.
	Batch []core.Report
	// Sample is the probe-reply payload of FrameReply frames.
	Sample core.Sample

	seq int64
	// slot is the frame's own arena slot; receivers echo it in the ack so
	// the sender's pending frame is found without a seq-to-slot lookup.
	slot       int32
	isAck      bool
	ackFor     int64
	ackForSlot int32
	retries    int
	// tries counts backoff draws this frame has consumed (carrier-sense
	// and retry backoffs alike); it indexes the frame's hashed jitter
	// stream, so the draws are a function of the frame alone — identical
	// under any partition of the deployment.
	tries int32
	// deadline is the absolute time past which the frame is abandoned
	// (0 = none); set from RadioConfig.FrameDeadline at Send time.
	deadline float64
	// refs counts the completion batches (rxBatch) that will read this
	// frame when they run: the armed receptions of a transmission hold
	// its arena slot instead of a copy.
	refs int32
	// delivered flags a pending data frame whose destination has in fact
	// received it (set by the receiver, through the barrier mailbox when
	// the receiver is remote). With a nonzero propagation delay a frame
	// can deliver while every ack is lost; the flag keeps such a give-up
	// out of Stats.Drops so delivery accounting stays exact. It is also
	// the receiver's duplicate filter: a retransmission goes on the air
	// only after its ack timeout, by when the flag of an earlier delivery
	// is set, so the frame a receiver completes carries delivered == true
	// exactly when that receiver already delivered it.
	delivered bool
	// landed marks a broadcast, ack or imported frame whose propagate
	// event has fired while a completion batch still holds it: the batch
	// releases the slot when it runs.
	landed bool
}

// RadioStats counts link-layer happenings.
type RadioStats struct {
	// DataSent counts first transmissions of data frames.
	DataSent int
	// Retries counts data retransmissions.
	Retries int
	// Collisions counts receptions corrupted by overlap.
	Collisions int
	// Drops counts data frames abandoned after MaxRetries or past their
	// frame deadline without ever having been delivered. A frame whose
	// receptions succeeded but whose acks were all lost is counted
	// delivered, not dropped, even though the sender gave up — so
	// Delivered + Drops always equals DataSent (crashed senders aside).
	Drops int
	// ChannelLosses counts receptions erased by the injected channel
	// model (independent of collisions).
	ChannelLosses int
	// Delivered counts data frames handed to their destination exactly
	// once (duplicates from lost acks are filtered).
	Delivered int
	// Ledger tallies every physical transmission (broadcasts, data
	// frames, retries and acks) and its bytes by protocol phase, at the
	// point the transmit energy is charged; it needs no trace recorder.
	Ledger trace.Ledger
}

// add accumulates another radio's stats (shard merge).
func (s *RadioStats) add(o RadioStats) {
	s.DataSent += o.DataSent
	s.Retries += o.Retries
	s.Collisions += o.Collisions
	s.Drops += o.Drops
	s.ChannelLosses += o.ChannelLosses
	s.Delivered += o.Delivered
	for p, t := range o.Ledger {
		s.Ledger[p].Frames += t.Frames
		s.Ledger[p].Bytes += t.Bytes
	}
}

// batchPool recycles the report-batch slices that ride FrameReports
// frames. Batches are acquired empty at flush time, travel with the frame
// through retransmissions, and return to the pool when the link layer is
// done with the frame (acked, dropped, or died with a crashed sender), so
// a steady-state convergecast reuses a small working set of slices
// instead of allocating one per hop.
type batchPool struct {
	free [][]core.Report
}

// get returns an empty batch, reusing pooled capacity when available.
func (p *batchPool) get() []core.Report {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return nil
}

// put recycles a batch's capacity. Zero-capacity slices are not worth
// keeping.
func (p *batchPool) put(b []core.Report) {
	if cap(b) == 0 {
		return
	}
	p.free = append(p.free, b[:0])
}

// txSpan is one on-air interval of a node: carrier is sensable at its
// neighbors from s+PropagationDelay to e+PropagationDelay.
type txSpan struct {
	s, e float64
}

// sensable reports whether the span's carrier is sensable at now, with
// propagation delay d.
func (sp txSpan) sensable(now, d float64) bool {
	return sp.s+d <= now && now < sp.e+d
}

// inlineSpans is how many live on-air spans a node keeps inline in its
// hot state. Transmit prunes spans no reader can sense any more, and a
// half-duplex node rarely starts a transmission less than one
// propagation delay after its last one ended, so a node holds at most
// two live spans but for the rare ack retry (TestLiveSpanBound); the
// rest spill to a per-radio overflow list.
const inlineSpans = 2

// spanSet is a node's live on-air spans: the first inlineSpans inline,
// any further ones in the owning radio's spill list. It is a fixed-size
// value, so the sharded barrier publishes it by plain copy.
type spanSet struct {
	inline [inlineSpans]txSpan
	n      int32
}

// sensed reports whether a span of node id's set is sensable at now;
// spill holds the node's overflow, looked up only when the set has one.
func (ss *spanSet) sensed(spill map[network.NodeID][]txSpan, id network.NodeID, now, d float64) bool {
	for _, sp := range ss.inline[:min(int(ss.n), inlineSpans)] {
		if sp.sensable(now, d) {
			return true
		}
	}
	if ss.n > inlineSpans {
		for _, sp := range spill[id] {
			if sp.sensable(now, d) {
				return true
			}
		}
	}
	return false
}

// mailEntry is one cross-shard transmission awaiting delivery: the
// frame's propagate event fires in the destination shard at time t (the
// transmit time plus the propagation delay, always inside the next
// synchronization window).
type mailEntry struct {
	t  float64
	fr Frame
}

// deliveredMark is a cross-shard delivery notification: the receiver
// shard flags the sender's pending frame (identified by arena slot,
// validated by seq) as delivered at the next barrier. A sender can only
// give up on or retransmit a frame after its ack timeout, more than one
// propagation delay after any delivery, so the mark always crosses a
// barrier before the drop could fire or a retransmitted copy is taken —
// identical accounting and duplicate filtering at every shard count.
type deliveredMark struct {
	seq  int64
	slot int32
}

// radioGroup is the state shared by the radios of one deployment — a
// single radio in sequential runs, one per shard in sharded runs. All
// per-node slices are written exclusively by the shard that owns the
// node (every event addressing a node executes in its own shard), so
// parallel windows never race; cross-shard reads go through the
// barrier-published view copies (busyView/crashView) instead of the live
// arrays.
type radioGroup struct {
	radios []*Radio
	// hot is the per-node state every reception and carrier sense reads,
	// one 64-byte record per node.
	hot []radioHot
	// rx is each node's current reception header, kept only while a
	// trace recorder is attached (the collision trace is its one reader);
	// nil otherwise.
	rx       []rxHeader
	handlers []func(network.NodeID, *Frame)
	// seqs derives per-node frame sequence numbers: node id's frames get
	// (id+1)<<24 | counter, globally unique and — unlike a shared
	// counter — independent of how other nodes' sends interleave.
	seqs []int64
	// crashT is each node's mid-round crash time, +Inf while alive.
	// Neighbors treat a crashed node as alive until crashT +
	// PropagationDelay — the silence takes one propagation to be heard.
	crashT []float64
	// stride is the largest neighbour count, the most receptions one
	// transmission can arm (the rxBatch receiver block size).
	stride int

	// Sharded-run state; nil/zero in sequential runs.
	shardOf []int32   // node -> shard (nil = sequential)
	border  []bool    // node has cross-shard neighbors
	remote  [][]int32 // node -> remote shards in radio range
	se      *ShardedEngine
	k       int
	// busyView/crashView are the barrier-published snapshots remote
	// shards read (spillView holds the spans past a busyView entry's
	// inline ones); dirty lists (per owning shard, stamp-deduplicated per
	// epoch) name the border nodes to republish at the next barrier.
	busyView   []spanSet
	spillView  map[network.NodeID][]txSpan
	crashView  []float64
	dirtyBusy  [][]int32
	dirtyCrash [][]int32
	busyStamp  []int64
	crashStamp []int64
	epoch      int64
	// mail[src*k+dst] queues cross-shard transmissions, drained
	// single-threaded at every barrier into import-arena propagates.
	mail [][]mailEntry
	// marks[src*k+dst] queues cross-shard delivery notifications for
	// dst's pending frames, drained at the same barriers.
	marks [][]deliveredMark
}

func newRadioGroup(nw *network.Network) *radioGroup {
	n := nw.Len()
	g := &radioGroup{
		hot:      make([]radioHot, n),
		handlers: make([]func(network.NodeID, *Frame), n),
		seqs:     make([]int64, n),
		crashT:   make([]float64, n),
	}
	for i := range g.crashT {
		g.crashT[i] = math.Inf(1)
		g.hot[i].alive = nw.Alive(network.NodeID(i))
		g.stride = max(g.stride, len(nw.Neighbors(network.NodeID(i))))
	}
	return g
}

// Radio executes frame exchanges over the network's connectivity graph
// with carrier sensing, receiver-side collisions, acknowledgements and
// bounded retransmission. In-flight frames live in an index-addressed
// arena with a free-list, pending data frames are tracked by sequence
// number, and all timers are typed engine events — so the steady-state
// link layer runs without heap allocation.
//
// Every physical effect crosses the medium with a PropagationDelay
// latency: a transmission becomes sensable (and receivable) one delay
// after it starts, and a crash becomes observable to neighbors one delay
// after it happens. That delay is what gives sharded execution its
// conservative lookahead; sequential runs use the identical physics, so
// the two are byte-equivalent.
type Radio struct {
	eng   EngineAPI
	nw    *network.Network
	cfg   RadioConfig
	grp   *radioGroup
	shard int32

	// frames is the in-flight frame arena; freeSlots recycles it. A data
	// frame owns its slot from Send until it is acked, dropped, or dies
	// with a crashed sender; broadcast and ack frames own theirs until
	// their propagate event fires. Events reach a frame by slot and
	// validate the frame's unique seq, so a recycled slot can never be
	// acted on by a stale event.
	frames    []Frame
	freeSlots []int32
	// imports holds frames mailed in from other shards, parked from the
	// barrier drain until their propagate event fires.
	imports    []Frame
	importFree []int32
	counters   *metrics.Counters
	// pool recycles report batches; upper layers acquire flush batches
	// from it and the radio returns them when frames finish.
	pool batchPool
	// spill holds the live on-air spans of this shard's nodes past their
	// inlineSpans inline ones; nil until a node first needs it.
	spill map[network.NodeID][]txSpan
	// batches holds the completion records of landed frames (see
	// rxBatch) and batchFree recycles them. Record b's receivers are
	// rxIDs[b*stride:][:n], stride being the deployment's largest
	// degree, so a record never regrows.
	batches   []rxBatch
	batchFree []int32
	rxIDs     []network.NodeID

	// Stats accumulates link-layer counts (this shard's share).
	Stats RadioStats

	// tr, when set, records structured link-layer events. Every emission
	// is behind this nil check and recording draws no randomness, so an
	// untraced radio is byte-identical to today's.
	tr *trace.Recorder
	// onDrop, when set, receives data frames abandoned after MaxRetries
	// or past their deadline, so an upper layer can re-queue their
	// payload. The frame's Batch is recycled when the handler returns.
	onDrop func(Frame)
	// upper receives non-link-layer typed events (see OnEvent).
	upper func(Event)
	// channel, when set, decides per reception whether the channel
	// erases the frame on the directed link from->to; losses are drawn
	// before (and independently of) the collision model. links is the
	// same for a fault plan's channel table, drawn by neighbour index.
	channel func(from, to network.NodeID) bool
	links   *faults.Links
}

// radioHot is one node's transceiver state: everything a reception, a
// carrier sense and a transmit read, in one 64-byte record.
type radioHot struct {
	txUntil float64
	rxUntil float64
	// live are the node's on-air spans a neighbour may still sense.
	live        spanSet
	rxActive    bool
	rxCorrupted bool
	// alive is the radio's own view of the node's liveness: filled from
	// the network when the group is built and cleared by Crash, so a
	// reception reads it next to the rest of the receiver's state.
	alive bool
}

// rxBatch is one landed frame's armed receptions on a radio: the n
// receivers propagate armed, in neighbour order, all due at the frame's
// end of airtime and completed together by one evFinishRx. It holds the
// frame by reference (see frameAt) until it runs.
type rxBatch struct {
	ref int32
	n   int32
}

// rxHeader is what the collision trace records of the reception a
// collision corrupts: an overheard frame keeps nothing else.
type rxHeader struct {
	From, To network.NodeID
	seq      int64
	Bytes    int
	Kind     FrameKind
	isAck    bool
}

// validateRadioConfig is the shared construction check.
func validateRadioConfig(cfg RadioConfig) error {
	if cfg.BitsPerSecond <= 0 {
		return fmt.Errorf("desim: bitrate must be positive, got %g", cfg.BitsPerSecond)
	}
	if cfg.SlotTime <= 0 {
		return fmt.Errorf("desim: slot time must be positive, got %g", cfg.SlotTime)
	}
	return nil
}

// newShardRadio builds one radio onto the group.
func (g *radioGroup) newShardRadio(shard int32, eng EngineAPI, nw *network.Network, cfg RadioConfig, counters *metrics.Counters) *Radio {
	r := &Radio{
		eng:      eng,
		nw:       nw,
		cfg:      cfg,
		grp:      g,
		shard:    shard,
		counters: counters,
	}
	g.radios = append(g.radios, r)
	return r
}

// NewRadio builds a radio over the network. counters may be nil; when
// given, every physical transmission and reception (including retries and
// acks) is charged to it, which is what separates the measured link-layer
// energy from the structural model's perfect-link charge. The radio
// installs itself as the engine's typed-event handler; upper layers
// register for their own event kinds with OnEvent.
//
// The radio snapshots node liveness from the network when it is built: a
// node that fails mid-run must go through Crash, or receptions at it
// continue as if it were alive.
func NewRadio(eng EngineAPI, nw *network.Network, cfg RadioConfig, counters *metrics.Counters) (*Radio, error) {
	if eng == nil || nw == nil {
		return nil, fmt.Errorf("desim: nil engine or network")
	}
	if err := validateRadioConfig(cfg); err != nil {
		return nil, err
	}
	g := newRadioGroup(nw)
	r := g.newShardRadio(0, eng, nw, cfg.normalized(), counters)
	eng.SetHandler(r.handleEvent)
	return r, nil
}

// newShardedRadios builds one radio per shard of the engine's partition,
// all sharing one radioGroup, and wires the engine's barrier hook: mail
// drain plus border-state publication. It also derives the engine's
// synchronization window from the propagation delay.
func newShardedRadios(se *ShardedEngine, nw *network.Network, cfg RadioConfig, counters *metrics.Counters) ([]*Radio, error) {
	if se == nil || nw == nil {
		return nil, fmt.Errorf("desim: nil engine or network")
	}
	if err := validateRadioConfig(cfg); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	part := se.part
	if len(part.Shard) != nw.Len() {
		return nil, fmt.Errorf("desim: partition over %d nodes, network has %d", len(part.Shard), nw.Len())
	}
	n := nw.Len()
	k := part.K
	g := newRadioGroup(nw)
	g.shardOf = part.Shard
	g.border = part.Border
	g.remote = part.Remote
	g.se = se
	g.k = k
	g.busyView = make([]spanSet, n)
	g.crashView = make([]float64, n)
	for i := range g.crashView {
		// Nodes already failed when the round starts read as crashed
		// forever ago: dead immediately, they never transmitted.
		g.crashView[i] = math.Inf(1)
		if !g.hot[i].alive {
			g.crashView[i] = math.Inf(-1)
		}
	}
	g.dirtyBusy = make([][]int32, k)
	g.dirtyCrash = make([][]int32, k)
	g.busyStamp = make([]int64, n)
	g.crashStamp = make([]int64, n)
	g.epoch = 1
	g.mail = make([][]mailEntry, k*k)
	g.marks = make([][]deliveredMark, k*k)
	radios := make([]*Radio, k)
	for s := 0; s < k; s++ {
		eng := se.Shard(s)
		radios[s] = g.newShardRadio(int32(s), eng, nw, cfg, counters)
		eng.SetHandler(radios[s].handleEvent)
	}
	se.setWindow(cfg.PropagationDelay)
	se.OnBarrier(g.barrier)
	return radios, nil
}

// barrier runs single-threaded between windows: publish the border state
// remote shards will read during the next window, then drain the
// cross-shard mailboxes into import-arena propagate events. Every mailed
// delivery time is at least the next window's start (transmit time +
// PropagationDelay with the window equal to that delay), so nothing
// lands in a shard's past — the conservative-lookahead invariant.
func (g *radioGroup) barrier() {
	for s := range g.dirtyBusy {
		for _, id := range g.dirtyBusy[s] {
			g.busyView[id] = g.hot[id].live
			if g.busyView[id].n > inlineSpans {
				// A view entry's spill list is read only while its count
				// says it has one, so a stale list needs no clearing.
				if g.spillView == nil {
					g.spillView = make(map[network.NodeID][]txSpan)
				}
				nid := network.NodeID(id)
				g.spillView[nid] = append(g.spillView[nid][:0], g.radios[s].spill[nid]...)
			}
		}
		g.dirtyBusy[s] = g.dirtyBusy[s][:0]
		for _, id := range g.dirtyCrash[s] {
			g.crashView[id] = g.crashT[id]
		}
		g.dirtyCrash[s] = g.dirtyCrash[s][:0]
	}
	g.epoch++
	k := g.k
	for d := 0; d < k; d++ {
		rd := g.radios[d]
		for s := 0; s < k; s++ {
			mbox := &g.marks[s*k+d]
			for _, m := range *mbox {
				if p := &rd.frames[m.slot]; p.seq == m.seq {
					p.delivered = true
				}
			}
			*mbox = (*mbox)[:0]
			box := &g.mail[s*k+d]
			for i := range *box {
				m := &(*box)[i]
				fr := m.fr
				if fr.Batch != nil {
					// The mailed frame aliases the sender's pooled batch;
					// give the import its own copy from the receiving
					// radio's pool, which takes it back when the import is
					// released.
					fr.Batch = append(rd.pool.get(), fr.Batch...)
				}
				slot := rd.allocImport()
				rd.imports[slot] = fr
				g.se.scheduleMailed(int32(d), m.t, Event{Kind: evPropagate, Node: fr.From, Seq: fr.seq, Arg: -(slot + 1)})
			}
			*box = (*box)[:0]
		}
	}
}

// localShard reports whether id's events run on this radio's engine.
func (r *Radio) localShard(id network.NodeID) bool {
	return r.grp.shardOf == nil || r.grp.shardOf[id] == r.shard
}

// visibleAlive reports whether id looks alive from this shard right now:
// a node's death becomes observable one PropagationDelay after it
// happens (its last transmission is still on the air). For local nodes
// the check is exact against the live crash time; for remote nodes it
// reads the barrier-published crash view — equivalent, because a crash
// inside the current window cannot become visible before the window
// ends. Nodes already failed at round start are dead immediately: they
// never transmitted.
func (r *Radio) visibleAlive(id network.NodeID) bool {
	g := r.grp
	if r.localShard(id) {
		if r.nw.Alive(id) {
			return true
		}
		tc := g.crashT[id]
		return !math.IsInf(tc, 1) && r.eng.Now() < tc+r.cfg.PropagationDelay
	}
	return r.eng.Now() < g.crashView[id]+r.cfg.PropagationDelay
}

// handleEvent dispatches typed events: link-layer kinds are executed
// here, everything else goes to the upper layer.
func (r *Radio) handleEvent(ev Event) {
	switch ev.Kind {
	case evBroadcastAttempt:
		if slot := ev.Arg; r.frames[slot].seq == ev.Seq {
			r.broadcastAttempt(slot)
		}
	case evAttempt:
		r.attempt(ev.Seq, ev.Arg)
	case evAckTimeout:
		r.ackTimeout(ev.Seq, ev.Arg)
	case evFinishRx:
		r.completeBatch(ev.Arg)
	case evAckSend:
		if slot := ev.Arg; r.frames[slot].seq == ev.Seq {
			r.ackSend(slot)
		}
	case evAckRetry:
		if slot := ev.Arg; r.frames[slot].seq == ev.Seq {
			r.ackRetry(slot)
		}
	case evPropagate:
		r.propagate(ev)
	default:
		if r.upper != nil {
			r.upper(ev)
		}
	}
}

// OnEvent registers the upper-layer dispatcher for typed events the radio
// does not consume (flushes, probes, measurements, crashes, ...).
func (r *Radio) OnEvent(fn func(Event)) { r.upper = fn }

// OnReceive registers the upper-layer handler invoked when a data frame is
// delivered to id. The handler receives the delivering node, so one
// function value can serve every node without per-node closures, and the
// frame in place: it is valid only for the duration of the call.
func (r *Radio) OnReceive(id network.NodeID, fn func(network.NodeID, *Frame)) {
	r.grp.handlers[id] = fn
}

// OnDrop registers the upper-layer handler invoked when a data frame is
// abandoned after exhausting its retries or its deadline. The frame's
// Batch is recycled after the handler returns; copy it to keep it.
func (r *Radio) OnDrop(fn func(Frame)) {
	r.onDrop = fn
}

// SetTrace installs a structured event recorder: every link-layer
// happening — transmissions, receptions, deliveries, acks, backoffs,
// retries, drops with cause, collisions, channel erasures, crashes — is
// recorded as a typed trace.Event at the same points the energy model
// charges, so the trace reconciles exactly with the round's counters
// (trace.CheckCounters). A nil recorder disables tracing; the radio's
// behavior is identical either way.
func (r *Radio) SetTrace(rec *trace.Recorder) {
	r.tr = rec
	if rec != nil && r.grp.rx == nil {
		r.grp.rx = make([]rxHeader, len(r.grp.hot))
	}
}

// phaseOfFrame classifies a frame into the protocol phase its traffic
// belongs to: the query flood, the probe/measure exchange, the report
// convergecast, or pure link machinery (acks).
func phaseOfFrame(f *Frame) trace.Phase {
	return phaseOf(f.Kind, f.isAck)
}

// phaseOf is phaseOfFrame on a frame's kind and ack flag.
func phaseOf(kind FrameKind, isAck bool) trace.Phase {
	if isAck {
		return trace.PhaseLink
	}
	switch kind {
	case FrameQuery:
		return trace.PhaseQuery
	case FrameProbe, FrameReply:
		return trace.PhaseMeasure
	case FrameReports:
		return trace.PhaseCollect
	}
	return trace.PhaseNone
}

// SetChannel installs a per-link loss model: it is consulted once per
// potential reception, and a true return erases the frame on that link
// before it reaches the receiver — modeling channel errors the CRC
// catches, independent of the collision model. Acks and broadcasts
// traverse the channel too. Draws happen at arrival time in the
// receiving node's shard, so each directed link consumes its loss stream
// in arrival order regardless of partitioning. A packet round installs
// its fault plan's channel table (faults.Links) the same way, drawn by
// the receiver's index in the sender's neighbour list.
func (r *Radio) SetChannel(ch func(from, to network.NodeID) bool) {
	r.channel = ch
}

// Crash kills a node mid-simulation: its Failed mark is set and the
// radio's own liveness flag cleared, any ongoing reception is voided,
// and its on-air spans are truncated at the crash instant. It is the one
// way to fail a node mid-run (see NewRadio). The node stops
// transmitting, receiving and forwarding immediately — but its neighbors
// only observe the death one PropagationDelay later (visibleAlive): until
// then frames toward it are still sent and die by retry exhaustion, which
// is how upper layers detect the silence. Data frames it still has
// pending are abandoned silently at their next attempt (a dead node
// cannot re-queue).
func (r *Radio) Crash(id network.NodeID) {
	if !r.nw.Alive(id) {
		return
	}
	if r.tr != nil {
		r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindCrash, Node: int32(id), Peer: -1})
	}
	r.nw.Node(id).Failed = true
	now := r.eng.Now()
	g := r.grp
	g.crashT[id] = now
	st := &g.hot[id]
	for i := range min(int(st.live.n), inlineSpans) {
		st.live.inline[i].e = min(st.live.inline[i].e, now)
	}
	for i, sp := range r.spill[id] {
		r.spill[id][i].e = min(sp.e, now)
	}
	st.rxActive = false
	st.rxCorrupted = false
	st.txUntil = 0
	st.alive = false
	if g.shardOf != nil && g.border[id] {
		r.markBusyDirty(id)
		if g.crashStamp[id] != g.epoch {
			g.crashStamp[id] = g.epoch
			g.dirtyCrash[r.shard] = append(g.dirtyCrash[r.shard], int32(id))
		}
	}
}

// markBusyDirty queues a border node's live spans for publication at the
// next barrier (at most once per window).
func (r *Radio) markBusyDirty(id network.NodeID) {
	g := r.grp
	if g.busyStamp[id] == g.epoch {
		return
	}
	g.busyStamp[id] = g.epoch
	g.dirtyBusy[r.shard] = append(g.dirtyBusy[r.shard], int32(id))
}

// allocFrame returns an arena slot, recycling freed ones first.
func (r *Radio) allocFrame() int32 {
	if n := len(r.freeSlots); n > 0 {
		s := r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		return s
	}
	r.frames = append(r.frames, Frame{})
	return int32(len(r.frames) - 1)
}

// releaseFrame clears a slot and returns it to the free-list.
// Broadcast and ack slots are released when their propagate event fires,
// or by the last reception holding them (unref) if that comes later.
func (r *Radio) releaseFrame(slot int32) {
	r.frames[slot] = Frame{}
	r.freeSlots = append(r.freeSlots, slot)
}

// recycleFrame releases a data frame's slot, returning its batch to the
// pool first.
func (r *Radio) recycleFrame(slot int32) {
	if b := r.frames[slot].Batch; b != nil {
		r.pool.put(b)
	}
	r.releaseFrame(slot)
}

// allocImport returns an import-arena slot.
func (r *Radio) allocImport() int32 {
	if n := len(r.importFree); n > 0 {
		s := r.importFree[n-1]
		r.importFree = r.importFree[:n-1]
		return s
	}
	r.imports = append(r.imports, Frame{})
	return int32(len(r.imports) - 1)
}

// releaseImport clears an import slot, returning the batch copy the
// barrier made for it to the pool.
func (r *Radio) releaseImport(slot int32) {
	if b := r.imports[slot].Batch; b != nil {
		r.pool.put(b)
	}
	r.imports[slot] = Frame{}
	r.importFree = append(r.importFree, slot)
}

// nextSeq issues node id's next frame sequence number: globally unique
// and a function of the node's own send count alone, so frame identities
// are identical under any partition.
func (r *Radio) nextSeq(id network.NodeID) int64 {
	r.grp.seqs[id]++
	return (int64(id)+1)<<24 | r.grp.seqs[id]
}

// backoffUnit returns the try-th uniform [0,1) jitter draw of the frame
// with the given seq, as a splitmix-style hash of (seed, seq, try): the
// stream a frame consumes depends on the frame alone, not on which other
// frames draw when — the partition invariance sharded execution needs (a
// shared rand.Rand would interleave differently per shard).
func backoffUnit(seed, seq int64, try int32) float64 {
	z := uint64(seed)*0xD1B54A32D192ED03 ^ uint64(seq)*0x9E3779B97F4A7C15 ^ uint64(try)<<56
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Broadcast queues an unacknowledged local broadcast: the frame is
// transmitted once (after carrier sensing with bounded backoff) and every
// neighbor that receives it intact gets it delivered. Lost receptions are
// not recovered — flooding protocols tolerate that through redundancy.
func (r *Radio) Broadcast(from network.NodeID, bytes int) error {
	return r.broadcast(Frame{From: from, Bytes: bytes, Kind: FrameRaw})
}

// BroadcastQuery broadcasts the flooded contour query.
func (r *Radio) BroadcastQuery(from network.NodeID, bytes int) error {
	return r.broadcast(Frame{From: from, Bytes: bytes, Kind: FrameQuery})
}

// BroadcastProbe broadcasts an isoline candidate's neighborhood probe.
func (r *Radio) BroadcastProbe(from network.NodeID, bytes int) error {
	return r.broadcast(Frame{From: from, Bytes: bytes, Kind: FrameProbe})
}

// BroadcastReply broadcasts a node's probe reply: like every broadcast it
// is sent once after carrier sensing, never acked or retried, and not
// counted in Stats.DataSent.
func (r *Radio) BroadcastReply(from network.NodeID, bytes int, s core.Sample) error {
	return r.broadcast(Frame{From: from, Bytes: bytes, Kind: FrameReply, Sample: s})
}

func (r *Radio) broadcast(f Frame) error {
	if !r.nw.Alive(f.From) {
		return fmt.Errorf("desim: broadcast from dead node %d", f.From)
	}
	if f.Bytes <= 0 {
		return fmt.Errorf("desim: frame size must be positive, got %d", f.Bytes)
	}
	f.To = broadcastAddr
	f.seq = r.nextSeq(f.From)
	slot := r.allocFrame()
	f.slot = slot
	r.frames[slot] = f
	r.broadcastAttempt(slot)
	return nil
}

// broadcastAddr marks a frame delivered to every intact receiver.
const broadcastAddr network.NodeID = -2

// broadcastAttempt carrier-senses and transmits a broadcast frame, backing
// off a bounded number of times. The frame stays parked in its arena slot
// across backoffs; the slot is released when its propagate event fires.
func (r *Radio) broadcastAttempt(slot int32) {
	f := &r.frames[slot]
	if r.mediumBusy(f.From) && f.tries < 16 {
		if r.tr != nil {
			r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindBackoff, Phase: phaseOfFrame(f),
				Node: int32(f.From), Peer: int32(f.To), Seq: f.seq, Arg: f.tries, FrameKind: uint8(f.Kind)})
		}
		window := float64(int(1) << uint(min(int(f.tries)+1, 6)))
		delay := (1 + backoffUnit(r.cfg.Seed, f.seq, f.tries)*window) * r.cfg.SlotTime
		f.tries++
		r.eng.ScheduleEvent(delay, Event{Kind: evBroadcastAttempt, Node: f.From, Seq: f.seq, Arg: slot})
		return
	}
	r.transmit(slot)
}

// Send queues a raw data frame for transmission; delivery is attempted
// with CSMA/CA and acknowledged retransmission.
func (r *Radio) Send(from, to network.NodeID, bytes int) error {
	return r.send(Frame{From: from, To: to, Bytes: bytes, Kind: FrameRaw})
}

// SendReports queues a data frame carrying a report batch. The batch is
// owned by the radio until the frame is acknowledged or dropped and is
// then recycled into the radio's pool: callers must not retain it.
func (r *Radio) SendReports(from, to network.NodeID, bytes int, batch []core.Report) error {
	return r.send(Frame{From: from, To: to, Bytes: bytes, Kind: FrameReports, Batch: batch})
}

func (r *Radio) send(f Frame) error {
	if !r.nw.Alive(f.From) || !r.visibleAlive(f.To) {
		return fmt.Errorf("desim: send between dead nodes %d -> %d", f.From, f.To)
	}
	if f.Bytes <= 0 {
		return fmt.Errorf("desim: frame size must be positive, got %d", f.Bytes)
	}
	f.seq = r.nextSeq(f.From)
	if r.cfg.FrameDeadline > 0 {
		f.deadline = r.eng.Now() + r.cfg.FrameDeadline
	}
	slot := r.allocFrame()
	f.slot = slot
	r.frames[slot] = f
	r.Stats.DataSent++
	if r.tr != nil {
		r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindSend, Phase: phaseOfFrame(&f),
			Node: int32(f.From), Peer: int32(f.To), Seq: f.seq, Bytes: int32(f.Bytes), FrameKind: uint8(f.Kind)})
	}
	r.attempt(f.seq, slot)
	return nil
}

// airtime returns the on-air duration of a frame.
func (r *Radio) airtime(bytes int) float64 {
	return float64(bytes) * 8 / r.cfg.BitsPerSecond
}

// mediumBusy reports whether id senses an ongoing transmission: its own
// immediately (it knows what it transmits), a neighbor's once the
// carrier has propagated — a span (s, e) is sensable during
// [s+PropagationDelay, e+PropagationDelay). Same-shard neighbors are
// read live; remote neighbors through the barrier-published view, which
// is equivalent: a span started inside the current window is invisible
// either way (its start plus the delay lands beyond the window's end).
func (r *Radio) mediumBusy(id network.NodeID) bool {
	now := r.eng.Now()
	g := r.grp
	if g.hot[id].txUntil > now {
		return true
	}
	d := r.cfg.PropagationDelay
	for _, nb := range r.nw.Neighbors(id) {
		// Remote neighbors MUST NOT touch g.hot even speculatively: the
		// owning shard writes it concurrently. Only the barrier-published
		// view is safe off-shard.
		if g.shardOf != nil && g.shardOf[nb] != r.shard {
			if g.busyView[nb].sensed(g.spillView, nb, now, d) {
				return true
			}
			continue
		}
		if g.hot[nb].live.sensed(r.spill, nb, now, d) {
			return true
		}
	}
	return false
}

// attempt runs one CSMA round for a pending data frame: sense, back off if
// busy, otherwise transmit and arm the ack timeout.
func (r *Radio) attempt(seq int64, slot int32) {
	f := &r.frames[slot]
	if f.seq != seq {
		return // acked while backing off; the slot may have been reused
	}
	if !r.nw.Alive(f.From) {
		if r.tr != nil {
			r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindDead, Phase: phaseOfFrame(f), Cause: trace.CauseSenderDead,
				Node: int32(f.From), Peer: int32(f.To), Seq: f.seq, Bytes: int32(f.Bytes), FrameKind: uint8(f.Kind)})
		}
		r.recycleFrame(slot) // sender crashed: the frame dies with it
		return
	}
	if r.expired(f) {
		r.drop(slot, trace.CauseDeadline)
		return
	}
	if r.mediumBusy(f.From) {
		r.backoff(f)
		return
	}
	r.transmit(slot)
	// Ack timeout: data airtime + ack airtime + two propagations +
	// turnaround guard.
	timeout := r.airtime(f.Bytes) + r.airtime(r.cfg.AckBytes) + 2*r.cfg.PropagationDelay + 4*r.cfg.SlotTime
	r.eng.ScheduleEvent(timeout, Event{Kind: evAckTimeout, Node: f.From, Seq: seq, Arg: slot})
}

// ackTimeout handles an expired ack wait: retry with backoff or give up.
func (r *Radio) ackTimeout(seq int64, slot int32) {
	f := &r.frames[slot]
	if f.seq != seq {
		return // acked
	}
	f.retries++
	if f.retries > r.cfg.MaxRetries || r.expired(f) {
		cause := trace.CauseRetries
		if f.retries <= r.cfg.MaxRetries {
			cause = trace.CauseDeadline
		}
		r.drop(slot, cause)
		return
	}
	r.Stats.Retries++
	if r.tr != nil {
		r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindRetry, Phase: phaseOfFrame(f),
			Node: int32(f.From), Peer: int32(f.To), Seq: f.seq, Arg: int32(f.retries), FrameKind: uint8(f.Kind)})
	}
	r.backoff(f)
}

// expired reports whether a frame has outlived its per-frame deadline.
func (r *Radio) expired(f *Frame) bool {
	return f.deadline > 0 && r.eng.Now() >= f.deadline
}

// drop abandons a pending data frame, notifies the upper layer, and
// recycles the frame's slot (and batch) afterwards. cause records why
// (retries exhausted or deadline passed) in the trace.
func (r *Radio) drop(slot int32, cause trace.Cause) {
	f := r.frames[slot]
	if !f.delivered {
		r.Stats.Drops++
	}
	if r.tr != nil {
		r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindDrop, Phase: phaseOfFrame(&f), Cause: cause,
			Node: int32(f.From), Peer: int32(f.To), Seq: f.seq, Bytes: int32(f.Bytes), Arg: int32(f.retries), FrameKind: uint8(f.Kind)})
	}
	if r.onDrop != nil {
		r.onDrop(f)
	}
	r.recycleFrame(slot)
}

// backoff reschedules a frame after a binary-exponential hashed delay.
func (r *Radio) backoff(f *Frame) {
	if r.tr != nil {
		r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindBackoff, Phase: phaseOfFrame(f),
			Node: int32(f.From), Peer: int32(f.To), Seq: f.seq, Arg: int32(f.retries), FrameKind: uint8(f.Kind)})
	}
	window := 1 << uint(min(f.retries+1, 6))
	delay := (1 + backoffUnit(r.cfg.Seed, f.seq, f.tries)*float64(window)) * r.cfg.SlotTime
	f.tries++
	r.eng.ScheduleEvent(delay, Event{Kind: evAttempt, Node: f.From, Seq: f.seq, Arg: f.slot})
}

// transmit puts a frame on the air: the sender is busy for the airtime,
// the span is recorded for delayed carrier sensing, and one propagate
// event per reachable shard is scheduled at now + PropagationDelay —
// locally through the engine, remotely through the mailbox — where the
// frame arrives at that shard's neighbors.
func (r *Radio) transmit(slot int32) {
	f := &r.frames[slot]
	if !r.nw.Alive(f.From) {
		// Crashed between scheduling and airtime. Broadcast and ack slots
		// are owned by their transmit path, so release them here; data
		// frames die at their next attempt.
		if f.isAck || f.To == broadcastAddr {
			r.releaseFrame(slot)
		}
		return
	}
	now := r.eng.Now()
	if r.tr != nil {
		r.tr.Record(trace.Event{T: now, Kind: trace.KindTx, Phase: phaseOfFrame(f),
			Node: int32(f.From), Peer: int32(f.To), Seq: f.seq, Bytes: int32(f.Bytes), FrameKind: uint8(f.Kind)})
	}
	dur := r.airtime(f.Bytes)
	g := r.grp
	g.hot[f.From].txUntil = now + dur
	d := r.cfg.PropagationDelay
	r.addSpan(f.From, txSpan{s: now, e: now + dur}, now, d)
	if r.counters != nil {
		r.counters.ChargeTx(f.From, f.Bytes)
	}
	r.Stats.Ledger.Add(phaseOfFrame(f), f.Bytes)
	r.eng.ScheduleEvent(d, Event{Kind: evPropagate, Node: f.From, Seq: f.seq, Arg: slot})
	if g.shardOf != nil && g.border[f.From] {
		r.markBusyDirty(f.From)
		for _, dst := range g.remote[f.From] {
			box := &g.mail[int(r.shard)*g.k+int(dst)]
			*box = append(*box, mailEntry{t: now + d, fr: *f})
		}
	}
}

// addSpan records a new on-air span of id, pruning spans no reader can
// sense any more (every possible read happens at a simulated time >=
// now, so a span whose sensable window ended by now is dead). Survivors
// keep their order, inline first, so the set is the one an unbounded
// list pruned the same way would hold.
func (r *Radio) addSpan(id network.NodeID, sp txSpan, now, d float64) {
	ls := &r.grp.hot[id].live
	kept := 0
	for i := range min(int(ls.n), inlineSpans) {
		if ls.inline[i].e+d > now {
			ls.inline[kept] = ls.inline[i]
			kept++
		}
	}
	if ls.n > inlineSpans {
		spill := r.spill[id]
		over := 0
		for _, x := range spill {
			if x.e+d > now {
				if kept < inlineSpans {
					ls.inline[kept] = x
				} else {
					spill[over] = x
					over++
				}
				kept++
			}
		}
		r.spill[id] = spill[:over]
	}
	if kept < inlineSpans {
		ls.inline[kept] = sp
	} else {
		if r.spill == nil {
			r.spill = make(map[network.NodeID][]txSpan)
		}
		r.spill[id] = append(r.spill[id], sp)
	}
	ls.n = int32(kept + 1)
}

// propagate lands a transmission at its receivers, one PropagationDelay
// after it started: for each neighbor of the sender in this shard, draw
// the channel, then begin the reception (collisions happen there).
// Arg >= 0 addresses the local frame arena, Arg < 0 the import arena
// (-(slot+1)) filled by the barrier mail drain. Local broadcast and ack
// slots are released here — their single transmit is done — unless a
// reception holds them.
//
// The receptions that could deliver all end at now + airtime, so they
// share one completion: propagate records the receivers it armed, in
// neighbour order, in an rxBatch and schedules a single evFinishRx on
// this radio's own engine, keyed by the sender and the frame seq.
func (r *Radio) propagate(ev Event) {
	var f *Frame
	slot := ev.Arg
	if slot >= 0 {
		f = &r.frames[slot]
		if f.seq != ev.Seq {
			return // stale: the slot moved on
		}
	} else {
		f = &r.imports[-slot-1]
	}
	now := r.eng.Now()
	dur := r.airtime(f.Bytes)
	g := r.grp
	b := int32(-1)
	for j, nb := range r.nw.Neighbors(f.From) {
		if g.shardOf != nil && g.shardOf[nb] != r.shard {
			continue
		}
		if !g.hot[nb].alive {
			continue
		}
		lost := false
		if r.links != nil {
			lost = r.links.Lose(f.From, j)
		} else if r.channel != nil {
			lost = r.channel(f.From, nb)
		}
		if lost {
			r.Stats.ChannelLosses++
			if r.tr != nil {
				r.tr.Record(trace.Event{T: now, Kind: trace.KindChanLoss, Phase: phaseOfFrame(f),
					Node: int32(f.From), Peer: int32(nb), Seq: f.seq, Bytes: int32(f.Bytes), FrameKind: uint8(f.Kind)})
			}
			continue
		}
		if !r.arrive(nb, f, dur) {
			continue
		}
		if b < 0 {
			b = r.allocBatch(slot)
		}
		bt := &r.batches[b]
		r.rxIDs[int(b)*g.stride+int(bt.n)] = nb
		bt.n++
	}
	if b >= 0 {
		f.refs++
		r.eng.ScheduleEventAt(now+dur, Event{Kind: evFinishRx, Node: f.From, Seq: f.seq, Arg: b})
	}
	// A data frame's slot stays with its sender until acked or dropped;
	// broadcast, ack and import slots are done once their receptions are.
	if slot < 0 || f.isAck || f.To == broadcastAddr {
		if f.refs > 0 {
			f.landed = true
		} else {
			r.release(slot)
		}
	}
}

// frameAt resolves a frame reference: a local arena slot (>= 0) or an
// import slot (-(slot+1)). The pointer is valid until the next
// allocFrame or allocImport.
func (r *Radio) frameAt(ref int32) *Frame {
	if ref >= 0 {
		return &r.frames[ref]
	}
	return &r.imports[-ref-1]
}

// release frees a broadcast, ack or import frame by reference.
func (r *Radio) release(ref int32) {
	if ref >= 0 {
		r.releaseFrame(ref)
	} else {
		r.releaseImport(-ref - 1)
	}
}

// allocBatch returns an empty completion record for frame reference ref,
// recycling freed ones first.
func (r *Radio) allocBatch(ref int32) int32 {
	if n := len(r.batchFree); n > 0 {
		b := r.batchFree[n-1]
		r.batchFree = r.batchFree[:n-1]
		r.batches[b] = rxBatch{ref: ref}
		return b
	}
	r.batches = append(r.batches, rxBatch{ref: ref})
	r.rxIDs = append(r.rxIDs, make([]network.NodeID, r.grp.stride)...)
	return int32(len(r.batches) - 1)
}

// completeBatch runs the receptions of completion record b in the order
// propagate armed them, counting each as one executed event, then frees
// the record and drops its hold on the frame.
//
// Batching moves no node's own event sequence. A receiver has at most
// one armed reception, so its completion is its only finishRx at that
// instant, and evFinishRx keeps its kind-major place among the instant's
// events. Only different receivers' completions interleave differently,
// and nothing one node does reaches another sooner than PropagationDelay.
func (r *Radio) completeBatch(b int32) {
	bt := r.batches[b]
	for _, id := range r.rxIDs[int(b)*r.grp.stride:][:bt.n] {
		r.finishRx(id, bt.ref)
	}
	r.eng.countSteps(int64(bt.n - 1))
	r.batchFree = append(r.batchFree, b)
	r.unref(bt.ref)
}

// unref drops a completion batch's hold on its frame, releasing a landed
// frame with the last hold.
func (r *Radio) unref(ref int32) {
	f := r.frameAt(ref)
	f.refs--
	if f.refs == 0 && f.landed {
		r.release(ref)
	}
}

// arrive begins a reception at node id, handling receiver-side collisions:
// overlapping arrivals corrupt each other, and a transmitting node cannot
// receive. It reports whether the reception is armed for completion.
//
// Only a reception that could deliver — a frame addressed to id, or a
// broadcast — is armed: propagate adds it to the frame's completion
// batch, which holds the frame (Frame.refs) until it runs, so nothing is
// copied. An overheard frame keeps nothing (its header, when traced),
// yet still occupies the receiver until rxUntil, so it corrupts whatever
// overlaps it, but it would complete into nothing: the occupancy test
// below reads rxUntil, not rxActive alone, and at equal timestamps a
// completion sorts before any propagate, so an expired reception reads
// as finished whether or not an event ever cleared it. The same holds
// for a window a collision extends: a corrupted reception never
// delivers. It follows that a completion that finds its node's reception
// active and due is that very reception's.
func (r *Radio) arrive(id network.NodeID, f *Frame, dur float64) bool {
	now := r.eng.Now()
	g := r.grp
	st := &g.hot[id]
	if st.txUntil > now {
		return false // half-duplex: transmitting nodes miss the frame
	}
	if st.rxActive && st.rxUntil > now {
		// Overlap: the ongoing reception corrupts; this frame is lost too.
		if !st.rxCorrupted {
			st.rxCorrupted = true
			r.Stats.Collisions++
			if r.tr != nil {
				h := &g.rx[id]
				r.tr.Record(trace.Event{T: now, Kind: trace.KindCollision, Phase: phaseOf(h.Kind, h.isAck),
					Node: int32(id), Peer: int32(h.From), Seq: h.seq, Bytes: int32(h.Bytes), FrameKind: uint8(h.Kind)})
			}
		}
		r.Stats.Collisions++
		if r.tr != nil {
			r.tr.Record(trace.Event{T: now, Kind: trace.KindCollision, Phase: phaseOfFrame(f),
				Node: int32(id), Peer: int32(f.From), Seq: f.seq, Bytes: int32(f.Bytes), FrameKind: uint8(f.Kind)})
		}
		// Extend the busy window to cover the interferer; finishRx at the
		// old deadline no-ops against it.
		if now+dur > st.rxUntil {
			st.rxUntil = now + dur
		}
		return false
	}
	st.rxActive = true
	st.rxUntil = now + dur
	st.rxCorrupted = false
	if r.tr != nil {
		g.rx[id] = rxHeader{From: f.From, To: f.To, seq: f.seq, Bytes: f.Bytes, Kind: f.Kind, isAck: f.isAck}
	}
	return f.To == id || f.To == broadcastAddr
}

// markDelivered flags the sender's pending copy of a delivered data
// frame — directly when the sender shares this shard, through the
// barrier mailbox otherwise. See deliveredMark for why the mark always
// arrives before the sender could drop or retransmit the frame.
func (r *Radio) markDelivered(f *Frame) {
	g := r.grp
	if g.shardOf == nil || g.shardOf[f.From] == r.shard {
		if p := &r.frames[f.slot]; p.seq == f.seq {
			p.delivered = true
		}
		return
	}
	d := int(g.shardOf[f.From])
	s := int(r.shard)
	g.marks[s*g.k+d] = append(g.marks[s*g.k+d], deliveredMark{seq: f.seq, slot: f.slot})
}

// finishRx completes the reception at id of the frame with reference
// ref, delivering an intact frame and sending the ack.
//
// Duplicates need no per-node record. A broadcast is transmitted once and
// reaches each neighbor through exactly one arrive. A data frame is
// retransmitted only after its ack timeout, by when an earlier delivery
// has set the sender's delivered flag (see Frame.delivered), so a
// retransmission already delivered here carries the flag.
func (r *Radio) finishRx(id network.NodeID, ref int32) {
	st := &r.grp.hot[id]
	if st.rxActive && r.eng.Now() >= st.rxUntil {
		corrupted := st.rxCorrupted
		st.rxActive = false
		st.rxCorrupted = false
		if !corrupted {
			r.receive(id, ref)
		}
	}
	// Otherwise superseded by an extended (corrupted) window, or voided
	// by a crash.
}

// receive handles an intact frame completed at id: a broadcast delivers,
// an ack resolves its pending frame, a data frame is acked and delivered
// unless it is a duplicate.
func (r *Radio) receive(id network.NodeID, ref int32) {
	f := r.frameAt(ref)
	if r.counters != nil {
		r.counters.ChargeRx(id, f.Bytes)
	}
	if r.tr != nil {
		r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindRx, Phase: phaseOfFrame(f),
			Node: int32(id), Peer: int32(f.From), Seq: f.seq, Bytes: int32(f.Bytes), FrameKind: uint8(f.Kind)})
	}
	if f.To == broadcastAddr {
		// Broadcast: deliver, no ack.
		r.deliver(id, f)
		return
	}
	if f.isAck {
		if pending := &r.frames[f.ackForSlot]; pending.seq == f.ackFor {
			if r.tr != nil {
				r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindAck, Phase: phaseOfFrame(pending),
					Node: int32(id), Peer: int32(pending.To), Seq: pending.seq, Bytes: int32(pending.Bytes), FrameKind: uint8(pending.Kind)})
			}
			r.recycleFrame(f.ackForSlot) // still pending: acked now
		}
		return
	}
	// Ack the data frame (even duplicates, whose first ack was lost). The
	// ack waits in its arena slot until its send event transmits it. The
	// ack's ackForSlot echoes the data frame's slot in the sender's
	// arena, where the ack's own delivery resolves it.
	ack := Frame{From: id, To: f.From, Bytes: r.cfg.AckBytes, seq: r.nextSeq(id), isAck: true, ackFor: f.seq, ackForSlot: f.slot}
	ackSlot := r.allocFrame() // may move the arena: f is re-read below
	ack.slot = ackSlot
	r.frames[ackSlot] = ack
	r.eng.ScheduleEvent(r.cfg.SlotTime, Event{Kind: evAckSend, Node: id, Seq: ack.seq, Arg: ackSlot})
	f = r.frameAt(ref)
	if f.delivered {
		return // duplicate data frame
	}
	r.Stats.Delivered++
	r.markDelivered(f)
	r.deliver(id, f)
}

// deliver hands an intact frame to id's upper-layer handler.
func (r *Radio) deliver(id network.NodeID, f *Frame) {
	if r.tr != nil {
		r.tr.Record(trace.Event{T: r.eng.Now(), Kind: trace.KindDeliver, Phase: phaseOfFrame(f),
			Node: int32(id), Peer: int32(f.From), Seq: f.seq, Bytes: int32(f.Bytes), FrameKind: uint8(f.Kind)})
	}
	if h := r.grp.handlers[id]; h != nil {
		h(id, f)
	}
}

// ackSend transmits a queued ack, retrying once briefly when the medium
// is busy; a lost ack only costs a duplicate retransmission.
func (r *Radio) ackSend(slot int32) {
	f := &r.frames[slot]
	if r.mediumBusy(f.From) {
		r.eng.ScheduleEvent(r.cfg.SlotTime*2, Event{Kind: evAckRetry, Node: f.From, Seq: f.seq, Arg: slot})
		return
	}
	r.transmit(slot)
}

// ackRetry is the single deferred ack retransmission.
func (r *Radio) ackRetry(slot int32) {
	r.transmit(slot)
}
