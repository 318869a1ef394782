package desim

import (
	"testing"

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
// slots, queue entries and span lists recycle, and duplicate detection
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
	// Warm: frame slots, queue capacity, span lists.
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
