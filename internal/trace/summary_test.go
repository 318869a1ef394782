package trace

import (
	"testing"

	"isomap/internal/energy"
)

func TestSummarizePhaseBreakdown(t *testing.T) {
	evs := []Event{
		{T: 0.0, Kind: KindQueryHeard, Node: 0, Phase: PhaseQuery},
		{T: 0.1, Kind: KindTx, Node: 0, Bytes: 8, Phase: PhaseQuery},
		{T: 0.2, Kind: KindRx, Node: 1, Bytes: 8, Phase: PhaseQuery},
		{T: 0.3, Kind: KindDeliver, Node: 1, Seq: 1, Phase: PhaseQuery},
		{T: 0.4, Kind: KindGenerate, Node: 1, Arg: 2, Phase: PhaseMeasure},
		{T: 0.45, Kind: KindTx, Node: 1, Bytes: 24, Phase: PhaseMeasure},
		{T: 0.5, Kind: KindSend, Node: 1, Seq: 2, Bytes: 36, Phase: PhaseCollect},
		{T: 0.6, Kind: KindTx, Node: 1, Seq: 2, Bytes: 36, Phase: PhaseCollect},
		{T: 0.7, Kind: KindRx, Node: 0, Seq: 2, Bytes: 36, Phase: PhaseCollect},
		{T: 0.8, Kind: KindDeliver, Node: 0, Seq: 2, Phase: PhaseCollect},
		{T: 0.8, Kind: KindSinkReport, Node: 0, Arg: 2, Phase: PhaseCollect},
		{T: 0.9, Kind: KindTx, Node: 0, Seq: 2, Bytes: 6, Phase: PhaseLink}, // the ack
		{T: 1.0, Kind: KindAck, Node: 1, Seq: 2, Phase: PhaseCollect},
		{T: 1.1, Kind: KindDrop, Node: 2, Seq: 3, Cause: CauseDeadline, Phase: PhaseCollect},
		{T: 1.2, Kind: KindRoundEnd, Node: 0, Seq: 2},
		{Kind: KindSinkStage, Seq: 0, Arg: int32(StageVoronoi), DurNs: 500},
		{Kind: KindSinkStage, Seq: -1, Arg: int32(StageRaster), DurNs: 900},
	}
	s := Summarize(evs, 0)
	if s.Events != int64(len(evs)) || s.DroppedEvents != 0 {
		t.Errorf("events=%d dropped=%d", s.Events, s.DroppedEvents)
	}
	if s.Sends != 1 || s.Acked != 1 || s.Drops != 1 || s.Delivered != 2 {
		t.Errorf("sends=%d acked=%d drops=%d delivered=%d, want 1/1/1/2", s.Sends, s.Acked, s.Drops, s.Delivered)
	}
	if s.Generated != 2 || s.SinkReports != 2 || s.SinkDelivered != 2 || s.RoundSeconds != 1.2 {
		t.Errorf("generated=%d sinkReports=%d sinkDelivered=%d roundSeconds=%g",
			s.Generated, s.SinkReports, s.SinkDelivered, s.RoundSeconds)
	}

	// Fixed phase order, inactive phases omitted (no "none" here).
	wantOrder := []string{"query", "measure", "collect", "link"}
	if len(s.Phases) != len(wantOrder) {
		t.Fatalf("got %d phases, want %d", len(s.Phases), len(wantOrder))
	}
	for i, pb := range s.Phases {
		if pb.Phase != wantOrder[i] {
			t.Errorf("phase %d = %q, want %q", i, pb.Phase, wantOrder[i])
		}
	}
	collect := s.Phases[2]
	if collect.Tx != 1 || collect.TxBytes != 36 || collect.Rx != 1 || collect.RxBytes != 36 {
		t.Errorf("collect tx=%d/%dB rx=%d/%dB, want 1/36B each way", collect.Tx, collect.TxBytes, collect.Rx, collect.RxBytes)
	}
	if collect.Drops != 1 || collect.DropDeadline != 1 || collect.DropRetries != 0 {
		t.Errorf("collect drop split: drops=%d deadline=%d retries=%d", collect.Drops, collect.DropDeadline, collect.DropRetries)
	}
	if collect.FirstT != 0.5 || collect.LastT != 1.1 {
		t.Errorf("collect span [%g, %g], want [0.5, 1.1]", collect.FirstT, collect.LastT)
	}
	if want := energy.TxJoules(36); collect.TxJoules != want {
		t.Errorf("collect txJoules=%g, want %g (Mica2 model)", collect.TxJoules, want)
	}

	if len(s.SinkStages) != 2 {
		t.Fatalf("got %d sink stages, want 2", len(s.SinkStages))
	}
	if s.SinkStages[0].Stage != "voronoi" || s.SinkStages[0].Level != 0 || s.SinkStages[0].Nanos != 500 {
		t.Errorf("stage 0 = %+v", s.SinkStages[0])
	}
	if s.SinkStages[1].Stage != "raster" || s.SinkStages[1].Level != -1 {
		t.Errorf("stage 1 = %+v", s.SinkStages[1])
	}
}

// TestSummarizeDeltaTallies covers the delta-protocol event vocabulary:
// crossings, source-side suppressions, standing-query wakes and sink-side
// age expiries roll up into their Summary totals and nothing else.
func TestSummarizeDeltaTallies(t *testing.T) {
	evs := []Event{
		{T: 0.4, Kind: KindCrossing, Node: 3, Peer: -1, Arg: 0, Phase: PhaseMeasure},
		{T: 0.4, Kind: KindCrossing, Node: 3, Peer: -1, Seq: 1, Arg: 1, Phase: PhaseMeasure}, // a retirement
		{T: 0.5, Kind: KindSuppress, Node: 4, Peer: -1, Arg: 0, Phase: PhaseMeasure},
		{Kind: KindAgeExpire, Node: 5, Peer: -1, Arg: 0},
	}
	evs = append(evs, Event{T: 0.1, Kind: KindWake, Node: 3, Peer: -1, Phase: PhaseQuery})
	s := Summarize(evs, 0)
	if s.Crossings != 2 || s.Suppressed != 1 || s.AgeExpired != 1 || s.Wakes != 1 {
		t.Errorf("crossings=%d suppressed=%d ageExpired=%d wakes=%d, want 2/1/1/1",
			s.Crossings, s.Suppressed, s.AgeExpired, s.Wakes)
	}
	if s.Sends != 0 || s.Delivered != 0 || s.Drops != 0 {
		t.Errorf("delta events leaked into radio totals: %+v", s)
	}
}

// TestLedgerMatchesSummary: a ledger tallied at every transmission holds
// the same per-phase frames and bytes as the Summary of the trace those
// transmissions were recorded in.
func TestLedgerMatchesSummary(t *testing.T) {
	txs := []Event{
		{T: 0.1, Kind: KindTx, Node: 0, Bytes: 8, Phase: PhaseQuery},
		{T: 0.2, Kind: KindTx, Node: 1, Bytes: 8, Phase: PhaseQuery},
		{T: 0.3, Kind: KindTx, Node: 1, Bytes: 2, Phase: PhaseMeasure},
		{T: 0.4, Kind: KindTx, Node: 2, Bytes: 36, Phase: PhaseCollect},
		{T: 0.5, Kind: KindTx, Node: 1, Bytes: 2, Phase: PhaseLink},
	}
	var l Ledger
	for _, ev := range txs {
		l.Add(ev.Phase, int(ev.Bytes))
	}
	var fromSummary Ledger
	for _, pb := range Summarize(txs, 0).Phases {
		for p := range fromSummary {
			if Phase(p).String() == pb.Phase {
				fromSummary[p] = PhaseTx{Frames: pb.Tx, Bytes: pb.TxBytes}
			}
		}
	}
	if l != fromSummary {
		t.Fatalf("ledger %+v, summary %+v", l, fromSummary)
	}
	if l[PhaseQuery] != (PhaseTx{Frames: 2, Bytes: 16}) {
		t.Errorf("query phase %+v, want 2 frames of 16 bytes", l[PhaseQuery])
	}
}
