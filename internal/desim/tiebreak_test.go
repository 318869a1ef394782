package desim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"isomap/internal/network"
)

// tieWorkload builds a batch of typed events with heavy timestamp
// collisions: a handful of distinct times, kinds, nodes, seqs and args,
// so most pairs tie on at least the timestamp.
func tieWorkload(rng *rand.Rand, n int) ([]float64, []Event) {
	times := make([]float64, n)
	evs := make([]Event, n)
	kinds := []EventKind{evBroadcastAttempt, evAttempt, evFinishRx, evFlush, evMeasure}
	for i := 0; i < n; i++ {
		times[i] = float64(rng.Intn(4)) * 0.25
		evs[i] = Event{
			Kind: kinds[rng.Intn(len(kinds))],
			Node: network.NodeID(rng.Intn(5)),
			Seq:  int64(rng.Intn(3)),
			Arg:  int32(rng.Intn(3)),
		}
	}
	return times, evs
}

type poppedEv struct {
	t  float64
	ev Event
}

func popOrder(eng EngineAPI, times []float64, evs []Event, perm []int) []poppedEv {
	var got []poppedEv
	eng.SetHandler(func(ev Event) {
		got = append(got, poppedEv{t: eng.Now(), ev: ev})
	})
	for _, i := range perm {
		eng.ScheduleEventAt(times[i], evs[i])
	}
	eng.Run()
	return got
}

// TestEngineTieBreakInsertionInvariant pins the tie-breaking contract
// documented on less: events scheduled at identical timestamps pop in a
// deterministic intrinsic order — (t, kind, node, seq, arg) — regardless
// of the order they were inserted, on both the production Engine and the
// EngineNaive oracle. Sharded execution depends on this: per-shard queues
// must pop the same relative order a single global queue would.
func TestEngineTieBreakInsertionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 40 + rng.Intn(80)
		times, evs := tieWorkload(rng, n)

		// The reference order is the intrinsic sort of the workload
		// itself (stable, so full-key duplicates keep insertion order of
		// the identity permutation).
		type keyed struct {
			t  float64
			ev Event
		}
		want := make([]keyed, n)
		for i := range evs {
			want[i] = keyed{times[i], evs[i]}
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.t != b.t {
				return a.t < b.t
			}
			if a.ev.Kind != b.ev.Kind {
				return a.ev.Kind < b.ev.Kind
			}
			if a.ev.Node != b.ev.Node {
				return a.ev.Node < b.ev.Node
			}
			if a.ev.Seq != b.ev.Seq {
				return a.ev.Seq < b.ev.Seq
			}
			return a.ev.Arg < b.ev.Arg
		})

		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		base := popOrder(NewEngine(), times, evs, identity)
		if len(base) != n {
			t.Fatalf("trial %d: popped %d of %d events", trial, len(base), n)
		}
		for i, g := range base {
			if g.t != want[i].t || g.ev != want[i].ev {
				t.Fatalf("trial %d: pop %d = %+v at t=%v, want %+v at t=%v",
					trial, i, g.ev, g.t, want[i].ev, want[i].t)
			}
		}

		for p := 0; p < 4; p++ {
			perm := rng.Perm(n)
			if got := popOrder(NewEngine(), times, evs, perm); !reflect.DeepEqual(got, base) {
				t.Fatalf("trial %d perm %d: Engine pop order depends on insertion order", trial, p)
			}
			if got := popOrder(NewEngineNaive(), times, evs, perm); !reflect.DeepEqual(got, base) {
				t.Fatalf("trial %d perm %d: EngineNaive pop order differs from Engine", trial, p)
			}
		}
	}
}

// TestEngineTieBreakClosuresLast verifies the closure half of the
// contract: closure events sort after every typed event at the same
// timestamp and keep insertion order among themselves.
func TestEngineTieBreakClosuresLast(t *testing.T) {
	for _, eng := range []EngineAPI{NewEngine(), NewEngineNaive()} {
		var order []int
		eng.SetHandler(func(ev Event) { order = append(order, int(ev.Seq)) })
		eng.ScheduleAt(1.0, func() { order = append(order, 100) })
		eng.ScheduleEventAt(1.0, Event{Kind: evFlush, Node: 3, Seq: 2})
		eng.ScheduleAt(1.0, func() { order = append(order, 101) })
		eng.ScheduleEventAt(1.0, Event{Kind: evFlush, Node: 1, Seq: 1})
		eng.Run()
		want := []int{1, 2, 100, 101}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("%T: order %v, want %v", eng, order, want)
		}
	}
}
