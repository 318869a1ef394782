package trace

import "fmt"

// Violation is one invariant breach found by Check.
type Violation struct {
	// Invariant names the broken property (e.g. "frame-conservation").
	Invariant string
	// Seq and Node locate the offending frame/node where applicable.
	Seq  int64
	Node int32
	// Msg explains the breach.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: seq=%d node=%d: %s", v.Invariant, v.Seq, v.Node, v.Msg)
}

// FrameQuery, FrameProbe and FrameReply are the raw desim.FrameKind
// values of the query flood's frames and the measure phase's probe and
// reply frames, which the invariants recognise by Event.FrameKind (a
// desim test pins them in step).
const (
	FrameQuery uint8 = 2
	FrameProbe uint8 = 3
	FrameReply uint8 = 4
)

// CheckConfig tunes the invariant pass.
type CheckConfig struct {
	// MaxRetries, when positive, bounds per-frame KindRetry events (set
	// it to RadioConfig.MaxRetries).
	MaxRetries int
}

// Check runs the invariant pass over the recorder's held events,
// refusing truncated rings (a partial trace cannot prove conservation).
func (r *Recorder) Check(cfg CheckConfig) []Violation {
	if r.Dropped() > 0 {
		return []Violation{{Invariant: "complete-trace",
			Msg: fmt.Sprintf("ring overwrote %d events; conservation is unprovable on a truncated trace", r.Dropped())}}
	}
	return Check(r.Events(), cfg)
}

// Check verifies the round-internal invariants of a complete recorded
// trace and returns every breach found (nil when the trace is sound):
//
//   - time-order: simulated timestamps never decrease (sink-stage
//     events, recorded after the round, are exempt);
//   - frame-conservation: every unicast data send reaches exactly one
//     sender-terminal outcome — acked, dropped, or dead with a crashed
//     sender — by round end (traces without a KindRoundEnd marker may
//     leave frames in flight); no terminal precedes its send, and no
//     frame — unicast or broadcast — is delivered twice to the same
//     node;
//   - retry-bound: no frame retries more than cfg.MaxRetries times;
//   - reparent-downhill: every re-parent target sits at a strictly
//     lower frozen BFS level than the re-parenting node;
//   - crash-finality: a crashed node transmits, receives and delivers
//     nothing afterwards;
//   - sink-accounting: the fresh-report counts accepted at the sink sum
//     to the round's delivered total (KindRoundEnd.Seq);
//   - reply-once: no node transmits more than one probe reply;
//   - reply-after-probe: a reply's sender had a probe delivered to it
//     earlier in the round;
//   - reply-broadcast: replies are unacknowledged broadcasts, so none
//     appears in a send, ack, retry, drop or dead event;
//   - probe-after-query: a probe's sender heard the query or woke on its
//     standing-query timer earlier in the round;
//   - flood-or-wake: a round either floods the query (query-heard
//     events, query frames on the air) or starts its nodes on their
//     standing-query timers (wake events), never both.
//
// Together these turn the trace into a test oracle: properties that
// previously required printf archaeology become assertions.
func Check(events []Event, cfg CheckConfig) []Violation {
	var out []Violation
	type frameState struct {
		sent      bool
		terminals int
		retries   int
	}
	frames := make(map[int64]*frameState)
	frameAt := func(seq int64) *frameState {
		fs := frames[seq]
		if fs == nil {
			fs = &frameState{}
			frames[seq] = fs
		}
		return fs
	}
	// delivered records (seq, node) deliveries. Broadcasts have no send
	// event, so they are bound here and not through frames.
	type delivery struct {
		seq  int64
		node int32
	}
	delivered := make(map[delivery]bool)
	crashedAt := make(map[int32]float64)
	// probed marks nodes a probe was delivered to; replies counts each
	// node's reply transmissions.
	probed := make(map[int32]bool)
	replies := make(map[int32]int)
	// started marks nodes that heard the query or woke on their timer.
	started := make(map[int32]bool)
	var (
		flooded, woke bool
		lastT         float64
		sawRoundEnd   bool
		sinkAccepted  int64
		sinkTotal     int64
	)
	for i, ev := range events {
		if ev.Kind == KindSinkStage || ev.Kind == KindAgeExpire {
			// Both happen at the sink after the simulated round; their T=0
			// timestamps are exempt from the time-order invariant.
			continue
		}
		if ev.T < lastT {
			out = append(out, Violation{Invariant: "time-order", Seq: ev.Seq, Node: ev.Node,
				Msg: fmt.Sprintf("event %d (%s) at t=%g after t=%g", i, ev.Kind, ev.T, lastT)})
		}
		lastT = ev.T

		if t, ok := crashedAt[ev.Node]; ok && ev.T > t {
			switch ev.Kind {
			case KindTx, KindRx, KindDeliver:
				out = append(out, Violation{Invariant: "crash-finality", Seq: ev.Seq, Node: ev.Node,
					Msg: fmt.Sprintf("%s at t=%g after crash at t=%g", ev.Kind, ev.T, t)})
			}
		}

		if ev.FrameKind == FrameReply {
			switch ev.Kind {
			case KindSend, KindAck, KindRetry, KindDrop, KindDead:
				out = append(out, Violation{Invariant: "reply-broadcast", Seq: ev.Seq, Node: ev.Node,
					Msg: fmt.Sprintf("probe reply in a %s event: replies are never acked or retried", ev.Kind)})
			case KindTx:
				replies[ev.Node]++
				if replies[ev.Node] == 2 {
					out = append(out, Violation{Invariant: "reply-once", Seq: ev.Seq, Node: ev.Node,
						Msg: "second probe reply from one node in a round"})
				}
				if !probed[ev.Node] {
					out = append(out, Violation{Invariant: "reply-after-probe", Seq: ev.Seq, Node: ev.Node,
						Msg: fmt.Sprintf("reply at t=%g before any probe reached the node", ev.T)})
				}
			}
		}

		switch ev.Kind {
		case KindTx:
			switch {
			case ev.FrameKind == FrameQuery:
				flooded = true
			case ev.FrameKind == FrameProbe && !started[ev.Node]:
				out = append(out, Violation{Invariant: "probe-after-query", Seq: ev.Seq, Node: ev.Node,
					Msg: fmt.Sprintf("probe at t=%g from a node that neither heard the query nor woke", ev.T)})
			}
		case KindQueryHeard:
			started[ev.Node] = true
			flooded = true
		case KindWake:
			started[ev.Node] = true
			woke = true
		case KindSend:
			fs := frameAt(ev.Seq)
			if fs.sent {
				out = append(out, Violation{Invariant: "frame-conservation", Seq: ev.Seq, Node: ev.Node,
					Msg: "duplicate send for one sequence number"})
			}
			fs.sent = true
		case KindAck, KindDrop, KindDead:
			fs := frameAt(ev.Seq)
			if !fs.sent {
				out = append(out, Violation{Invariant: "frame-conservation", Seq: ev.Seq, Node: ev.Node,
					Msg: fmt.Sprintf("%s without a preceding send", ev.Kind)})
			}
			fs.terminals++
			if fs.terminals > 1 {
				out = append(out, Violation{Invariant: "frame-conservation", Seq: ev.Seq, Node: ev.Node,
					Msg: fmt.Sprintf("%s is terminal outcome #%d", ev.Kind, fs.terminals)})
			}
		case KindDeliver:
			if ev.FrameKind == FrameProbe {
				probed[ev.Node] = true
			}
			d := delivery{seq: ev.Seq, node: ev.Node}
			if delivered[d] {
				out = append(out, Violation{Invariant: "frame-conservation", Seq: ev.Seq, Node: ev.Node,
					Msg: "frame delivered twice to the same node"})
			}
			delivered[d] = true
		case KindRetry:
			fs := frameAt(ev.Seq)
			fs.retries++
			if cfg.MaxRetries > 0 && fs.retries > cfg.MaxRetries {
				out = append(out, Violation{Invariant: "retry-bound", Seq: ev.Seq, Node: ev.Node,
					Msg: fmt.Sprintf("retry %d exceeds MaxRetries %d", fs.retries, cfg.MaxRetries)})
			}
		case KindCrash:
			crashedAt[ev.Node] = ev.T
		case KindReparent:
			child, parent := UnpackLevels(ev.Arg)
			if parent >= child {
				out = append(out, Violation{Invariant: "reparent-downhill", Seq: ev.Seq, Node: ev.Node,
					Msg: fmt.Sprintf("new parent %d at level %d, node at level %d: repair must go strictly downhill", ev.Peer, parent, child)})
			}
		case KindSinkReport:
			sinkAccepted += int64(ev.Arg)
		case KindRoundEnd:
			sawRoundEnd = true
			sinkTotal = ev.Seq
		}
	}
	if flooded && woke {
		out = append(out, Violation{Invariant: "flood-or-wake",
			Msg: "round both flooded the query and woke nodes on their standing-query timers"})
	}
	if sawRoundEnd {
		for seq, fs := range frames {
			if fs.sent && fs.terminals == 0 {
				out = append(out, Violation{Invariant: "frame-conservation", Seq: seq,
					Msg: "frame still pending at round end: never acked, dropped or dead"})
			}
		}
		if sinkAccepted != sinkTotal {
			out = append(out, Violation{Invariant: "sink-accounting",
				Msg: fmt.Sprintf("sink accepted %d fresh reports but the round delivered %d", sinkAccepted, sinkTotal)})
		}
	}
	return out
}

// CheckCounters cross-checks the trace's per-node transmitted and
// received byte totals against an independent accounting (the round's
// metrics.Counters, passed as accessors to keep this package
// dependency-light). The two paths — trace emission and energy charging
// — share emission sites in the radio, so any divergence means an event
// stream went missing.
func CheckCounters(events []Event, nodes int, txBytes, rxBytes func(node int32) int64) []Violation {
	tx := make([]int64, nodes)
	rx := make([]int64, nodes)
	for _, ev := range events {
		if ev.Node < 0 || int(ev.Node) >= nodes {
			continue
		}
		switch ev.Kind {
		case KindTx:
			tx[ev.Node] += int64(ev.Bytes)
		case KindRx:
			rx[ev.Node] += int64(ev.Bytes)
		}
	}
	var out []Violation
	for i := 0; i < nodes; i++ {
		if got, want := tx[i], txBytes(int32(i)); got != want {
			out = append(out, Violation{Invariant: "energy-accounting", Node: int32(i),
				Msg: fmt.Sprintf("trace tx bytes %d, counters charged %d", got, want)})
		}
		if got, want := rx[i], rxBytes(int32(i)); got != want {
			out = append(out, Violation{Invariant: "energy-accounting", Node: int32(i),
				Msg: fmt.Sprintf("trace rx bytes %d, counters charged %d", got, want)})
		}
	}
	return out
}
