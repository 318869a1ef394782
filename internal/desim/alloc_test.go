package desim

import (
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/metrics"
	"isomap/internal/network"
)

// TestEngineScheduleZeroAllocs pins the engine's steady-state contract:
// once the queue buckets and the arenas have warmed to their working-set
// size, scheduling and executing typed events performs zero heap
// allocations.
// Any regression here — a re-boxed payload, a closure sneaking back into
// the hot path — fails this test before it shows up in a benchmark.
func TestEngineScheduleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	eng := NewEngine()
	eng.SetHandler(func(Event) {})
	// Warm the buckets and arenas past the depth the measured loop reaches.
	for i := 0; i < 1024; i++ {
		eng.ScheduleEvent(float64(i)*1e-4, Event{Kind: evMeasure, Seq: int64(i)})
	}
	eng.Run()

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			eng.ScheduleEvent(float64(i%7)*1e-4, Event{Kind: evMeasure, Node: network.NodeID(i % 32), Seq: int64(i), Arg: int32(i)})
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("typed schedule/step allocated %.1f allocs per 256-event burst, want 0", allocs)
	}
}

// TestEngineClosureArenaReuse pins the closure path's arena: after warmup
// the free-list recycles fnRec slots, so a schedule-and-run cycle costs
// only the closure values themselves (one allocation each when they
// capture, as these do via the engine pointer).
func TestEngineClosureArenaReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	eng := NewEngine()
	eng.SetHandler(func(Event) {})
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 64; i++ {
		eng.Schedule(float64(i)*1e-4, fn)
	}
	eng.Run()

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			eng.Schedule(float64(i%5)*1e-4, fn)
		}
		eng.Run()
	})
	// fn is a prebuilt value: the arena absorbs the bookkeeping, so the
	// whole burst should be allocation-free too.
	if allocs != 0 {
		t.Errorf("closure schedule/step allocated %.1f allocs per 64-event burst, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("closures never ran")
	}
}

// TestRadioSendAllocs pins the link-layer hot path: a no-contention
// acknowledged unicast — frame arena slot, CSMA attempt, transmission,
// receptions, ack round trip — allocates nothing in steady state. Frame
// slots and queue entries recycle, spans sit inline, and duplicate detection
// reads the sender's delivered flag instead of a per-node record.
func TestRadioSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: frame slots and queue capacity.
	for i := 0; i < 100; i++ {
		if err := r.Send(0, 1, 16); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}

	allocs := testing.AllocsPerRun(200, func() {
		if err := r.Send(0, 1, 16); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("no-contention Send allocated %.2f allocs/op, want 0", allocs)
	}
	if r.Stats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestRadioSendAllocsWithCounters is the same pin with energy accounting
// attached, covering the ChargeTx/ChargeRx paths that every experiment
// run exercises.
func TestRadioSendAllocsWithCounters(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	nw := cliqueNetwork(t)
	eng := NewEngine()
	c := metrics.NewCounters(nw.Len())
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := r.Send(0, 1, 16); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := r.Send(0, 1, 16); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("accounted Send allocated %.2f allocs/op, want 0", allocs)
	}
}

// Allocation pins for whole packet rounds at n = 1,000: every round
// builds its per-node state in a few blocks and keeps none of it, so the
// count is a small constant plus a few per shard, not a multiple of n.
// The bounds are the counts measured when the pins were set plus a small
// margin (DESIGN.md "Packet-engine complexity"); a per-node or
// per-reception allocation creeping back into the round fails them.
const (
	cleanRoundAllocs = 315
	deltaRoundAllocs = 320
)

// TestRunRoundAllocs pins the allocations of a clean full-report round.
func TestRunRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tree, f, q := fullRoundSetup(t, 1000)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunRound(tree, f, q, fc, cfg, RoundOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("clean round: %.0f allocs", allocs)
	if allocs > cleanRoundAllocs {
		t.Errorf("clean n=1000 round allocated %.0f times, pinned at most %d", allocs, cleanRoundAllocs)
	}
}

// TestRunRoundAllocsDelta pins the allocations of a delta-report timer
// round (standing query, no flood) on a drifting field. AllocsPerRun
// runs its function once before measuring, so the flood round, the
// warm-up round and the measured round are rounds 1, 2 and 3.
func TestRunRoundAllocsDelta(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tree, f, q := fullRoundSetup(t, 1000)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]field.Field, 4)
	for i := range snaps {
		snaps[i] = dyn.At(float64(i+1) * 0.5)
	}
	round := 0
	next := func() {
		if _, err := RunRound(tree, snaps[round], q, fc, cfg, RoundOptions{Delta: ds}); err != nil {
			t.Fatal(err)
		}
		round++
	}
	next() // the flood round
	allocs := testing.AllocsPerRun(1, next)
	t.Logf("delta timer round: %.0f allocs", allocs)
	if allocs > deltaRoundAllocs {
		t.Errorf("delta n=1000 timer round allocated %.0f times, pinned at most %d", allocs, deltaRoundAllocs)
	}
}
