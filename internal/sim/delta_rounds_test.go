package sim

import (
	"reflect"
	"testing"

	"isomap/internal/desim"
	"isomap/internal/field"
	"isomap/internal/trace"
)

func newDeltaSource(t *testing.T, r *Runner, seed int64, faultEvery int) *RoundSource {
	t.Helper()
	src := newRoundSource(t, r, seed, faultEvery)
	dyn, err := field.NewTemporal("drift", src.Env.Field, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	src.Dyn = dyn
	src.Delta = true
	src.DeltaExpiry = 3
	return src
}

// TestRoundSourceDelta drives the delta protocol through the RoundSource
// path: every round runs the packet engine, the served batch is the aged
// belief (so it never collapses to one round's crossings), the telemetry
// is populated, and two same-seed sources emit byte-identical streams —
// faulted rounds included.
func TestRoundSourceDelta(t *testing.T) {
	r := NewRunner(1)
	a := newDeltaSource(t, r, 3, 3)
	b := newDeltaSource(t, r, 3, 3)
	sawFault, crossed, suppressed := false, false, false
	for round := 0; round < 5; round++ {
		ra, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d diverged between same-seed delta sources (faulted=%v)", round+1, ra.Faulted)
		}
		if len(ra.Reports) == 0 {
			t.Fatalf("round %d served an empty belief", ra.Round)
		}
		if ra.Delta == nil {
			t.Fatalf("round %d carries no delta telemetry", ra.Round)
		}
		if ra.Delta.MapReports != len(ra.Reports) {
			t.Fatalf("round %d: MapReports=%d but %d reports served",
				ra.Round, ra.Delta.MapReports, len(ra.Reports))
		}
		if ra.DataFrames == 0 {
			t.Fatalf("round %d moved no data frames", ra.Round)
		}
		sawFault = sawFault || ra.Faulted
		crossed = crossed || ra.Delta.Crossings > 0
		suppressed = suppressed || ra.Delta.Suppressed > 0
	}
	if !sawFault {
		t.Error("FaultEvery=3 produced no faulted delta round in 5")
	}
	if !crossed || !suppressed {
		t.Errorf("delta path unexercised: crossed=%v suppressed=%v", crossed, suppressed)
	}
}

// TestRoundSourceDeltaSharded: the delta stream must be byte-identical
// on the sharded engine — cross-round DeltaState evolution included.
func TestRoundSourceDeltaSharded(t *testing.T) {
	r := NewRunner(1)
	seq := newDeltaSource(t, r, 3, 2)
	sharded := newDeltaSource(t, r, 3, 2)
	sharded.Shards = 4
	sharded.Workers = 4
	for round := 0; round < 4; round++ {
		ra, err := seq.Next()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sharded.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d diverged from sequential (faulted=%v)", ra.Round, ra.Faulted)
		}
	}
}

// TestRoundSourceDeltaSeekReplay pins the delta checkpoint-restore
// contract: SeekRound replays rounds 1..n from reset protocol state, so
// a fresh same-seed source seeked to n continues the continuous stream
// byte-identically — source-side memory, standing query and epoch
// offsets, aged belief and expiry clocks all aligned. The stream runs
// past the standing query's first re-flood (round K+1), and one seek
// lands beyond it.
func TestRoundSourceDeltaSeekReplay(t *testing.T) {
	const k = desim.RefloodRounds
	r := NewRunner(1)
	cont := newDeltaSource(t, r, 5, 2)
	var stream []*RoundData
	for round := 0; round < k+3; round++ {
		rd, err := cont.Next()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, rd)
	}
	for i, rd := range stream {
		flooded := rd.Ledger[trace.PhaseQuery].Bytes > 0
		if want := rd.Round == 1 || rd.Round == k+1; flooded != want {
			t.Fatalf("round %d: query flood on the air = %v, want %v (re-flood every %d rounds)", rd.Round, flooded, want, k)
		}
		if got := rd.Ledger[trace.PhaseQuery].Bytes + rd.Ledger[trace.PhaseMeasure].Bytes +
			rd.Ledger[trace.PhaseCollect].Bytes + rd.Ledger[trace.PhaseLink].Bytes; got != rd.TxBytes {
			t.Fatalf("round %d: ledger sums to %d bytes, TxBytes %d", i+1, got, rd.TxBytes)
		}
	}
	for _, seek := range []int{0, 2, k + 1} {
		re := newDeltaSource(t, r, 5, 2)
		if err := re.SeekRound(seek); err != nil {
			t.Fatal(err)
		}
		if re.Round() != seek {
			t.Fatalf("Round() after SeekRound(%d) = %d", seek, re.Round())
		}
		for i := seek; i < len(stream); i++ {
			rd, err := re.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rd, stream[i]) {
				t.Fatalf("seek %d: round %d diverged from continuous stream (faulted=%v)",
					seek, stream[i].Round, stream[i].Faulted)
			}
		}
	}
	// Seeking an already-advanced source must also reset cleanly, the
	// standing query included: the replayed round 1 floods again.
	again := newDeltaSource(t, r, 5, 2)
	for round := 0; round < 3; round++ {
		if _, err := again.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := again.SeekRound(1); err != nil {
		t.Fatal(err)
	}
	rd, err := again.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rd, stream[1]) {
		t.Fatal("re-seek after advancing diverged from continuous stream")
	}
}

// TestExtTemporalSweepTable runs the full default grid once through the
// table form — the cmd/experiments ext-temporal surface — and checks the
// grid covers both protocols and that full cells mark the delta-only
// metrics n/a.
func TestExtTemporalSweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full temporal grid")
	}
	tb, err := NewRunner(0).extTemporalSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "ext-temporal" {
		t.Errorf("table ID %q", tb.ID)
	}
	points := DefaultTemporalPoints()
	if len(tb.Rows) != len(points) {
		t.Fatalf("%d rows for %d grid points", len(tb.Rows), len(points))
	}
	modes := map[string]int{}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tb.Columns))
		}
		modes[row[2]]++
		if !points[i].Delta && (row[7] != "-" || row[9] != "-") {
			t.Errorf("full row %d carries delta-only metrics: %v", i, row)
		}
	}
	if modes["full"] == 0 || modes["delta"] == 0 {
		t.Errorf("grid does not cover both protocols: %v", modes)
	}
}

// TestTemporalSweepSmoke runs the single-cell CI grid end to end and
// sanity-checks the metric ranges.
func TestTemporalSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round packet sweep")
	}
	results, err := NewRunner(2).ExtTemporalSweepResults(1, SmokeTemporalPoints())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	res := results[0]
	if res.DataFramesPerRound <= 0 || res.TxBytesPerRound <= 0 {
		t.Errorf("no traffic measured: %+v", res)
	}
	if res.TrackingError < 0 || res.TrackingError > 1 {
		t.Errorf("tracking error %g outside [0, 1]", res.TrackingError)
	}
	if res.MeanStaleness < 0 {
		t.Errorf("delta cell reported n/a staleness: %+v", res)
	}
	if res.MapReports <= 0 {
		t.Errorf("empty served belief: %+v", res)
	}
}
