package desim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"isomap/internal/network"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(2, func() { order = append(order, 2) })
	eng.Schedule(1, func() { order = append(order, 1) })
	eng.Schedule(3, func() { order = append(order, 3) })
	end := eng.Run()
	if end != 3 {
		t.Errorf("final time = %v, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if eng.Steps() != 3 {
		t.Errorf("Steps = %d", eng.Steps())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(1, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var hits []float64
	eng.Schedule(1, func() {
		hits = append(hits, eng.Now())
		eng.Schedule(1, func() { hits = append(hits, eng.Now()) })
	})
	eng.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2 {
		t.Errorf("hits = %v", hits)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	eng := NewEngine()
	ran := false
	eng.Schedule(5, func() {
		eng.Schedule(-10, func() { ran = true })
	})
	end := eng.Run()
	if !ran {
		t.Error("negative-delay event never ran")
	}
	if end != 5 {
		t.Errorf("clock went backwards: %v", end)
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	var hits []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		eng.Schedule(d, func() { hits = append(hits, d) })
	}
	eng.RunUntil(2.5)
	if len(hits) != 2 {
		t.Fatalf("hits = %v, want events <= 2.5", hits)
	}
	if eng.Now() != 2.5 {
		t.Errorf("Now = %v, want 2.5", eng.Now())
	}
	eng.Run()
	if len(hits) != 4 {
		t.Errorf("remaining events lost: %v", hits)
	}
}

// mustPanic runs fn and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one mentioning %q", msg, want)
		}
	}()
	fn()
}

// TestEngineNegativeZeroTime pins the time-key normalisation: -0 is the
// same instant as +0, although Float64bits(-0) is above every positive
// time's bits.
func TestEngineNegativeZeroTime(t *testing.T) {
	eng := NewEngine()
	var got []int64
	eng.SetHandler(func(ev Event) { got = append(got, ev.Seq) })
	eng.ScheduleEventAt(1e-9, Event{Kind: evMeasure, Seq: 3})
	eng.ScheduleEventAt(math.Copysign(0, -1), Event{Kind: evMeasure, Seq: 2})
	eng.ScheduleEventAt(0, Event{Kind: evMeasure, Seq: 1})
	eng.RunBefore(1e-9)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("before 1ns: popped %v, want [1 2]", got)
	}
	if now := eng.Now(); now != 0 || math.Signbit(now) {
		t.Fatalf("Now = %v (signbit %v), want +0", now, math.Signbit(now))
	}
	eng.Run()
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("popped %v, want [1 2 3]", got)
	}
}

// TestEngineNaNTimePanics pins that a NaN time is refused on every
// scheduling path: it would pass the clamp to now and break the order.
func TestEngineNaNTimePanics(t *testing.T) {
	nan := math.NaN()
	for name, schedule := range map[string]func(*Engine){
		"Schedule":        func(e *Engine) { e.Schedule(nan, func() {}) },
		"ScheduleAt":      func(e *Engine) { e.ScheduleAt(nan, func() {}) },
		"ScheduleEvent":   func(e *Engine) { e.ScheduleEvent(nan, Event{Kind: evMeasure}) },
		"ScheduleEventAt": func(e *Engine) { e.ScheduleEventAt(nan, Event{Kind: evMeasure}) },
	} {
		t.Run(name, func(t *testing.T) {
			eng := NewEngine()
			mustPanic(t, "NaN", func() { schedule(eng) })
		})
	}
}

// TestEngineNodeRange pins the packed (kind, node) key: typed events on
// nodes outside [0, 2^24) panic, and the top node round-trips intact.
func TestEngineNodeRange(t *testing.T) {
	for _, node := range []network.NodeID{-1, maxNode, 1 << 31} {
		eng := NewEngine()
		mustPanic(t, "outside [0, 2^24)", func() { eng.ScheduleEvent(0, Event{Kind: evMeasure, Node: node}) })
	}
	eng := NewEngine()
	var got []network.NodeID
	eng.SetHandler(func(ev Event) { got = append(got, ev.Node) })
	eng.ScheduleEvent(0, Event{Kind: evMeasure, Node: maxNode - 1})
	eng.ScheduleEvent(0, Event{Kind: evMeasure, Node: 0})
	eng.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != maxNode-1 {
		t.Fatalf("nodes popped %v, want [0 %d]", got, maxNode-1)
	}
}
