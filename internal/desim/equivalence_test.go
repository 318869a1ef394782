package desim

import (
	"reflect"
	"testing"

	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/network"
)

// recordedEvent is one dispatch observed by the equivalence harness.
type recordedEvent struct {
	T  float64
	Ev Event
}

// TestEngineEquivalenceRandomWorkload drives the production Engine and
// the EngineNaive reference through identical randomized schedules —
// typed events, closures, nested re-scheduling, duplicate timestamps —
// and requires the dispatch traces to match event for event. This is the
// oracle property the whole rewrite rests on: the intrinsic event key
// (time, kind, node, seq, arg; insertion order last — see less) is a
// total order, so both heaps must pop the exact same sequence.
func TestEngineEquivalenceRandomWorkload(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		run := func(eng EngineAPI) []recordedEvent {
			var trace []recordedEvent
			eng.SetHandler(func(ev Event) {
				trace = append(trace, recordedEvent{T: eng.Now(), Ev: ev})
			})
			// Deterministic xorshift so both engines see identical input.
			state := uint64(seed)*2654435761 + 11
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			var emit func(depth int)
			emit = func(depth int) {
				n := int(next()%8) + 1
				for i := 0; i < n; i++ {
					// Coarse delays force timestamp collisions, exercising
					// the intrinsic tiebreak.
					delay := float64(next()%5) * 0.25
					ev := Event{
						Kind: EventKind(next()%16) + 1,
						Node: network.NodeID(next() % 64),
						Seq:  int64(next() % 1024),
						Arg:  int32(next() % 128),
					}
					if next()%4 == 0 && depth < 3 {
						d := depth
						eng.Schedule(delay, func() { emit(d + 1) })
					} else {
						eng.ScheduleEvent(delay, ev)
					}
				}
			}
			emit(0)
			eng.Run()
			return trace
		}
		fast := run(NewEngine())
		naive := run(NewEngineNaive())
		if !reflect.DeepEqual(fast, naive) {
			t.Fatalf("seed %d: engines diverged after %d vs %d events", seed, len(fast), len(naive))
		}
		if len(fast) == 0 {
			t.Fatalf("seed %d: empty trace, workload generator broken", seed)
		}
	}
}

// TestEngineEquivalenceRunUntil pins RunUntil boundary behavior on both
// engines: events at the deadline run, later ones stay queued, and the
// clock lands exactly on the deadline.
func TestEngineEquivalenceRunUntil(t *testing.T) {
	for _, mk := range []func() EngineAPI{
		func() EngineAPI { return NewEngine() },
		func() EngineAPI { return NewEngineNaive() },
	} {
		eng := mk()
		var got []int64
		eng.SetHandler(func(ev Event) { got = append(got, ev.Seq) })
		eng.ScheduleEvent(1, Event{Kind: evMeasure, Seq: 1})
		eng.ScheduleEvent(2, Event{Kind: evMeasure, Seq: 2})
		eng.ScheduleEvent(3, Event{Kind: evMeasure, Seq: 3})
		eng.RunUntil(2)
		if len(got) != 2 || eng.Now() != 2 {
			t.Fatalf("RunUntil(2): got %v at t=%v", got, eng.Now())
		}
		eng.Run()
		if len(got) != 3 {
			t.Fatalf("drain after RunUntil: got %v", got)
		}
	}
}

// TestFullRoundEngineOracle runs the complete packet-level round on the
// production Engine and on the EngineNaive reference and requires the
// results — delivered reports, phase times, radio statistics, and the
// full per-node energy counters — to be deeply identical.
func TestFullRoundEngineOracle(t *testing.T) {
	for _, n := range []int{150, 400} {
		fast := func() *RoundResult {
			tree, f, q := fullRoundSetup(t, n)
			res, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Engine: NewEngine()})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}()
		naive := func() *RoundResult {
			tree, f, q := fullRoundSetup(t, n)
			res, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Engine: NewEngineNaive()})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}()
		if !reflect.DeepEqual(fast, naive) {
			t.Errorf("n=%d: full round diverged between engines:\n fast: %+v\nnaive: %+v", n, fast, naive)
		}
		if len(fast.Delivered) == 0 {
			t.Errorf("n=%d: oracle round delivered nothing", n)
		}
	}
}

// TestFullRoundFaultsEngineOracle is the oracle comparison under an
// aggressive fault plan: bursty channel loss, mid-round crashes (with
// route repair and transport re-queues), and sink-side mangling all must
// behave identically on both engines.
func TestFullRoundFaultsEngineOracle(t *testing.T) {
	cfg := faults.Config{
		Seed: 7, Channel: faults.ChannelGilbertElliott, LossRate: 0.15, Burstiness: 0.6,
		CrashFraction: 0.12, CrashStart: 0.05, CrashEnd: 0.5, DuplicateRate: 0.2,
	}
	run := func(eng EngineAPI) *RoundResult {
		tree, f, q := fullRoundSetup(t, 400)
		plan, err := faults.New(cfg, 400)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Engine: eng, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(NewEngine())
	naive := run(NewEngineNaive())
	if !reflect.DeepEqual(fast, naive) {
		t.Errorf("faulted round diverged between engines:\n fast: %+v\nnaive: %+v", fast, naive)
	}
	if fast.Radio.ChannelLosses == 0 || fast.Crashed == 0 {
		t.Errorf("fault plan did not bite: %+v", fast.Radio)
	}
}

// TestCollectReportsEngineOracle compares the standalone convergecast on
// both engines, filters enabled.
func TestCollectReportsEngineOracle(t *testing.T) {
	run := func(eng EngineAPI) *CollectionResult {
		tree, reports := isoMapRound(t, 900, 3)
		res, err := CollectReportsEngine(eng, tree, reports, core.DefaultFilterConfig(), DefaultRadioConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(NewEngine())
	naive := run(NewEngineNaive())
	if !reflect.DeepEqual(fast, naive) {
		t.Errorf("collection diverged between engines:\n fast: %+v\nnaive: %+v", fast, naive)
	}
	if len(fast.Delivered) == 0 {
		t.Error("oracle collection delivered nothing")
	}
}
