package trace

import (
	"slices"
	"strings"
	"testing"
)

// cleanTrace is a minimal sound round: one broadcast delivery, one acked
// unicast, one dropped unicast, a crash with a dead pending frame, a
// downhill re-parent, and matching sink accounting.
func cleanTrace() []Event {
	return []Event{
		{T: 0.0, Kind: KindQueryHeard, Node: 0, Peer: 0, Phase: PhaseQuery},
		{T: 0.1, Kind: KindTx, Node: 0, Peer: -2, Seq: 1, Bytes: 8, Phase: PhaseQuery},
		{T: 0.2, Kind: KindDeliver, Node: 1, Peer: 0, Seq: 1, Phase: PhaseQuery},
		{T: 0.3, Kind: KindSend, Node: 1, Peer: 0, Seq: 2, Bytes: 36, Phase: PhaseCollect},
		{T: 0.4, Kind: KindDeliver, Node: 0, Peer: 1, Seq: 2, Phase: PhaseCollect},
		{T: 0.4, Kind: KindSinkReport, Node: 0, Peer: 1, Arg: 3, Phase: PhaseCollect},
		{T: 0.5, Kind: KindAck, Node: 1, Peer: 0, Seq: 2, Phase: PhaseCollect},
		{T: 0.6, Kind: KindSend, Node: 2, Peer: 3, Seq: 3, Bytes: 36, Phase: PhaseCollect},
		{T: 0.7, Kind: KindRetry, Node: 2, Peer: 3, Seq: 3, Arg: 1, Phase: PhaseCollect},
		{T: 0.8, Kind: KindDrop, Node: 2, Peer: 3, Seq: 3, Cause: CauseRetries, Phase: PhaseCollect},
		{T: 0.9, Kind: KindSend, Node: 4, Peer: 0, Seq: 4, Bytes: 36, Phase: PhaseCollect},
		{T: 1.0, Kind: KindCrash, Node: 4, Peer: -1},
		{T: 1.0, Kind: KindDead, Node: 4, Peer: 0, Seq: 4, Cause: CauseSenderDead, Phase: PhaseCollect},
		{T: 1.1, Kind: KindReparent, Node: 5, Peer: 6, Seq: 4, Arg: PackLevels(3, 2)},
		{T: 1.2, Kind: KindRoundEnd, Node: 0, Peer: -1, Seq: 3},
	}
}

func TestCheckCleanTracePasses(t *testing.T) {
	if v := Check(cleanTrace(), CheckConfig{MaxRetries: 7}); len(v) > 0 {
		t.Fatalf("clean trace reported %d violations, first: %v", len(v), v[0])
	}
}

// breakTrace mutates one aspect of the clean trace and asserts the named
// invariant — and only a violation mentioning it — fires.
func expectViolation(t *testing.T, invariant string, events []Event, cfg CheckConfig) {
	t.Helper()
	v := Check(events, cfg)
	if len(v) == 0 {
		t.Fatalf("expected a %s violation, trace passed", invariant)
	}
	for _, viol := range v {
		if viol.Invariant == invariant {
			if s := viol.String(); !strings.Contains(s, invariant) {
				t.Errorf("String() %q does not name the invariant", s)
			}
			return
		}
	}
	t.Fatalf("expected a %s violation, got %v", invariant, v)
}

func TestCheckTimeOrder(t *testing.T) {
	evs := cleanTrace()
	evs[3].T = 0.05 // send jumps backwards
	expectViolation(t, "time-order", evs, CheckConfig{})
}

func TestCheckSinkStageExemptFromTimeOrder(t *testing.T) {
	evs := append(cleanTrace(),
		Event{T: 0, Kind: KindSinkStage, Node: -1, Peer: -1, Seq: 0, Arg: int32(StageVoronoi), DurNs: 10})
	if v := Check(evs, CheckConfig{}); len(v) > 0 {
		t.Fatalf("post-round sink stage at t=0 flagged: %v", v[0])
	}
}

func TestCheckDuplicateSend(t *testing.T) {
	evs := cleanTrace()
	evs = append(evs, Event{T: 1.3, Kind: KindSend, Node: 1, Peer: 0, Seq: 2})
	expectViolation(t, "frame-conservation", evs, CheckConfig{})
}

func TestCheckDoubleTerminal(t *testing.T) {
	evs := cleanTrace()
	evs = append(evs, Event{T: 1.3, Kind: KindAck, Node: 2, Peer: 3, Seq: 3})
	expectViolation(t, "frame-conservation", evs, CheckConfig{})
}

func TestCheckTerminalWithoutSend(t *testing.T) {
	evs := []Event{{T: 0.1, Kind: KindDrop, Node: 1, Peer: 2, Seq: 9, Cause: CauseRetries}}
	expectViolation(t, "frame-conservation", evs, CheckConfig{})
}

func TestCheckPendingFrameAtRoundEnd(t *testing.T) {
	evs := []Event{
		{T: 0.1, Kind: KindSend, Node: 1, Peer: 0, Seq: 5},
		{T: 0.2, Kind: KindRoundEnd, Node: 0, Seq: 0},
	}
	expectViolation(t, "frame-conservation", evs, CheckConfig{})
	// Without the round-end marker the frame may legitimately be in
	// flight — a truncated trace must not be flagged.
	if v := Check(evs[:1], CheckConfig{}); len(v) > 0 {
		t.Errorf("in-flight frame without round end flagged: %v", v[0])
	}
}

func TestCheckDoubleDelivery(t *testing.T) {
	evs := []Event{
		{T: 0.1, Kind: KindSend, Node: 1, Peer: 0, Seq: 5},
		{T: 0.2, Kind: KindDeliver, Node: 0, Peer: 1, Seq: 5},
		{T: 0.3, Kind: KindDeliver, Node: 0, Peer: 1, Seq: 5},
		{T: 0.4, Kind: KindAck, Node: 1, Peer: 0, Seq: 5},
	}
	expectViolation(t, "frame-conservation", evs, CheckConfig{})
}

// TestCheckDoubleBroadcastDelivery: a broadcast has no send event, yet
// delivering it twice to one node is still a conservation breach, while
// one delivery to each of several nodes is not.
func TestCheckDoubleBroadcastDelivery(t *testing.T) {
	evs := []Event{
		{T: 0.1, Kind: KindTx, Node: 0, Peer: -2, Seq: 7, Bytes: 8, Phase: PhaseQuery},
		{T: 0.2, Kind: KindDeliver, Node: 1, Peer: 0, Seq: 7, Phase: PhaseQuery},
		{T: 0.2, Kind: KindDeliver, Node: 2, Peer: 0, Seq: 7, Phase: PhaseQuery},
	}
	if v := Check(evs, CheckConfig{}); len(v) > 0 {
		t.Fatalf("one broadcast delivery per node flagged: %v", v[0])
	}
	evs = append(evs, Event{T: 0.3, Kind: KindDeliver, Node: 1, Peer: 0, Seq: 7, Phase: PhaseQuery})
	expectViolation(t, "frame-conservation", evs, CheckConfig{})
}

func TestCheckRetryBound(t *testing.T) {
	evs := []Event{
		{T: 0.1, Kind: KindSend, Node: 1, Peer: 0, Seq: 5},
		{T: 0.2, Kind: KindRetry, Node: 1, Peer: 0, Seq: 5, Arg: 1},
		{T: 0.3, Kind: KindRetry, Node: 1, Peer: 0, Seq: 5, Arg: 2},
		{T: 0.4, Kind: KindAck, Node: 1, Peer: 0, Seq: 5},
	}
	expectViolation(t, "retry-bound", evs, CheckConfig{MaxRetries: 1})
	if v := Check(evs, CheckConfig{MaxRetries: 2}); len(v) > 0 {
		t.Errorf("retries within bound flagged: %v", v[0])
	}
}

func TestCheckCrashFinality(t *testing.T) {
	evs := []Event{
		{T: 0.1, Kind: KindCrash, Node: 4, Peer: -1},
		{T: 0.2, Kind: KindTx, Node: 4, Peer: -2, Seq: 1, Bytes: 8},
	}
	expectViolation(t, "crash-finality", evs, CheckConfig{})
}

func TestCheckReparentDownhill(t *testing.T) {
	evs := []Event{
		{T: 0.1, Kind: KindReparent, Node: 5, Peer: 6, Arg: PackLevels(3, 3)},
	}
	expectViolation(t, "reparent-downhill", evs, CheckConfig{})
}

func TestCheckSinkAccounting(t *testing.T) {
	evs := cleanTrace()
	evs[len(evs)-1].Seq = 99 // round claims 99 delivered, sink accepted 3
	expectViolation(t, "sink-accounting", evs, CheckConfig{})
}

func TestCheckRefusesTruncatedRing(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(Event{T: float64(i), Kind: KindTx, Seq: int64(i)})
	}
	v := r.Check(CheckConfig{})
	if len(v) != 1 || v[0].Invariant != "complete-trace" {
		t.Fatalf("truncated ring: got %v, want a single complete-trace violation", v)
	}
}

func TestCheckCounters(t *testing.T) {
	evs := []Event{
		{T: 0.1, Kind: KindTx, Node: 0, Bytes: 8},
		{T: 0.2, Kind: KindRx, Node: 1, Bytes: 8},
		{T: 0.3, Kind: KindTx, Node: 1, Bytes: 36},
		{T: 0.4, Kind: KindRx, Node: 0, Bytes: 36},
	}
	tx := []int64{8, 36}
	rx := []int64{36, 8}
	get := func(s []int64) func(int32) int64 { return func(n int32) int64 { return s[n] } }
	if v := CheckCounters(evs, 2, get(tx), get(rx)); len(v) > 0 {
		t.Fatalf("matching counters flagged: %v", v[0])
	}
	tx[1] = 44 // counters charged more than the trace saw
	v := CheckCounters(evs, 2, get(tx), get(rx))
	if len(v) != 1 || v[0].Invariant != "energy-accounting" || v[0].Node != 1 {
		t.Fatalf("got %v, want one energy-accounting violation at node 1", v)
	}
}

// measureTrace is a sound measure exchange: node 1 wakes on its
// standing-query timer and probes, nodes 2 and 3 hear the probe, and
// each broadcasts its one reply, which node 1 keeps.
func measureTrace() []Event {
	probe := func(t float64, kind Kind, node, peer int32) Event {
		return Event{T: t, Kind: kind, Node: node, Peer: peer, Seq: 10, Bytes: 6, Phase: PhaseMeasure, FrameKind: FrameProbe}
	}
	reply := func(t float64, kind Kind, node, peer int32, seq int64) Event {
		return Event{T: t, Kind: kind, Node: node, Peer: peer, Seq: seq, Bytes: 20, Phase: PhaseMeasure, FrameKind: FrameReply}
	}
	return []Event{
		{T: 0.05, Kind: KindWake, Node: 1, Peer: -1, Phase: PhaseQuery},
		probe(0.1, KindTx, 1, -2),
		probe(0.2, KindDeliver, 2, 1),
		probe(0.2, KindDeliver, 3, 1),
		reply(0.3, KindBackoff, 2, -2, 11),
		reply(0.4, KindTx, 2, -2, 11),
		reply(0.4, KindTx, 3, -2, 12),
		reply(0.5, KindDeliver, 1, 2, 11),
		reply(0.5, KindDeliver, 1, 3, 12),
	}
}

func TestCheckMeasureExchangePasses(t *testing.T) {
	if v := Check(measureTrace(), CheckConfig{}); len(v) > 0 {
		t.Fatalf("sound measure exchange reported %d violations, first: %v", len(v), v[0])
	}
}

func TestCheckReplyOnce(t *testing.T) {
	evs := append(measureTrace(),
		Event{T: 0.6, Kind: KindTx, Node: 2, Peer: -2, Seq: 13, Bytes: 20, Phase: PhaseMeasure, FrameKind: FrameReply})
	expectViolation(t, "reply-once", evs, CheckConfig{})
}

func TestCheckReplyAfterProbe(t *testing.T) {
	// A node no probe reached replies.
	evs := append(measureTrace(),
		Event{T: 0.6, Kind: KindTx, Node: 4, Peer: -2, Seq: 14, Bytes: 20, Phase: PhaseMeasure, FrameKind: FrameReply})
	expectViolation(t, "reply-after-probe", evs, CheckConfig{})

	// A node replies before the probe reaches it.
	evs = measureTrace()
	early := evs[6] // node 3's reply, moved ahead of its probe delivery
	early.T = 0.15
	evs = slices.Insert(slices.Delete(evs, 6, 7), 2, early)
	expectViolation(t, "reply-after-probe", evs, CheckConfig{})
}

func TestCheckReplyBroadcast(t *testing.T) {
	for _, k := range []Kind{KindSend, KindAck, KindRetry, KindDrop} {
		evs := append(measureTrace(),
			Event{T: 0.6, Kind: k, Node: 2, Peer: 1, Seq: 11, Phase: PhaseMeasure, FrameKind: FrameReply})
		expectViolation(t, "reply-broadcast", evs, CheckConfig{})
	}
}

func TestCheckProbeAfterQuery(t *testing.T) {
	// The prober never started its round.
	evs := measureTrace()[1:]
	expectViolation(t, "probe-after-query", evs, CheckConfig{})

	// The prober starts its round only after probing.
	evs = measureTrace()
	wake := evs[0]
	wake.T = 0.15
	evs = slices.Insert(evs[1:], 1, wake)
	expectViolation(t, "probe-after-query", evs, CheckConfig{})

	// Hearing the flood starts a round as well as waking does.
	evs = measureTrace()
	evs[0].Kind, evs[0].Peer = KindQueryHeard, 0
	if v := Check(evs, CheckConfig{}); len(v) > 0 {
		t.Fatalf("probe after hearing the flood flagged: %v", v[0])
	}
}

func TestCheckFloodOrWake(t *testing.T) {
	// A flood round in which one node also wakes on its timer.
	evs := slices.Insert(cleanTrace(), 1,
		Event{T: 0.0, Kind: KindWake, Node: 7, Peer: -1, Phase: PhaseQuery})
	expectViolation(t, "flood-or-wake", evs, CheckConfig{})

	// A timer round in which a query frame still goes on the air.
	evs = append(measureTrace(),
		Event{T: 0.6, Kind: KindTx, Node: 3, Peer: -2, Seq: 20, Bytes: 8, Phase: PhaseQuery, FrameKind: FrameQuery})
	expectViolation(t, "flood-or-wake", evs, CheckConfig{})
}
