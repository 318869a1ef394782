package desim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/network"
	"isomap/internal/routing"
)

// roundFingerprint serializes every observable field of a round result —
// delivered reports in arrival order, all tallies, phase times, radio
// stats, per-node energy charges, executed event count — so two runs are
// byte-identical exactly when their fingerprints match.
func roundFingerprint(res *RoundResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reached=%d iso=%d gen=%d q=%.12g m=%.12g c=%.12g t=%.12g\n",
		res.QueryReached, res.IsolineNodes, res.Generated,
		res.QuerySeconds, res.MeasureSeconds, res.CollectSeconds, res.TotalSeconds)
	fmt.Fprintf(&b, "radio=%+v sparse=%d reportdrops=%d crashed=%d repairs=%d severed=%d events=%d\n",
		res.Radio, res.SparseMeasures, res.ReportDrops, res.Crashed, res.Repairs, res.Severed, res.Events)
	for _, r := range res.Delivered {
		fmt.Fprintf(&b, "%d/%d %.12g (%.12g,%.12g) (%.12g,%.12g)\n",
			r.Source, r.LevelIndex, r.Level, r.Pos.X, r.Pos.Y, r.Grad.X, r.Grad.Y)
	}
	if res.Counters != nil {
		for i := 0; i < res.Counters.Len(); i++ {
			id := network.NodeID(i)
			if tx, rx := res.Counters.TxBytes(id), res.Counters.RxBytes(id); tx != 0 || rx != 0 {
				fmt.Fprintf(&b, "n%d tx=%d rx=%d\n", i, tx, rx)
			}
		}
	}
	return b.String()
}

// gridEngine is a sharded engine over a k-cell grid partition of the
// tree's deployment.
func gridEngine(tree *routing.Tree, k, workers int) *ShardedEngine {
	return NewShardedEngine(network.NewGridPartition(tree.Network(), k), workers)
}

// TestShardedFullRoundEquivalence is the tentpole's correctness bar: the
// sharded engine must reproduce the sequential round byte for byte — same
// delivered reports, same tallies, same energy charges, same event count,
// same trace multiset — at every shard count, worker count, and partition
// shape, including adversarial random partitions where nearly every node
// is a border node.
func TestShardedFullRoundEquivalence(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 400)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	nw := tree.Network()

	baseRec := traceRecorderFor(400)
	base, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Trace: baseRec})
	if err != nil {
		t.Fatal(err)
	}
	want := roundFingerprint(base)
	wantTrace := goldenDigest(baseRec)

	type layout struct {
		name string
		part *network.Partition
	}
	layouts := []layout{
		{"grid1", network.NewGridPartition(nw, 1)},
		{"grid4", network.NewGridPartition(nw, 4)},
		{"grid6", network.NewGridPartition(nw, 6)},
		{"grid16", network.NewGridPartition(nw, 16)},
		{"seeded3", network.NewSeededPartition(nw, 3, 11)},
		{"seeded8", network.NewSeededPartition(nw, 8, 12)},
	}
	for _, l := range layouts {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", l.name, workers), func(t *testing.T) {
				rec := traceRecorderFor(400)
				res, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: NewShardedEngine(l.part, workers), Trace: rec})
				if err != nil {
					t.Fatal(err)
				}
				if got := roundFingerprint(res); got != want {
					t.Errorf("sharded round diverged from sequential:\n%s", firstDiff(got, want))
				}
				if got := goldenDigest(rec); got != wantTrace {
					t.Errorf("sharded trace diverged:\n got  %s\n want %s", got, wantTrace)
				}
			})
		}
	}
}

// TestShardedFullRoundFaultsEquivalence repeats the equivalence bar under
// an active fault plan: lossy channel draws, mid-round crashes (with the
// delayed-visibility liveness view), route repairs and requeues all have
// to land identically when the round is split across shards. Plans are
// stateful, so every run gets a fresh identically-seeded one.
func TestShardedFullRoundFaultsEquivalence(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 400)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	cfg.FrameDeadline = 1.5
	nw := tree.Network()

	newPlan := func(seed int64) *faults.Plan {
		plan, err := faults.New(faults.Config{
			Seed: seed, Channel: faults.ChannelGilbertElliott, LossRate: 0.12, Burstiness: 0.5,
			CrashFraction: 0.1, CrashStart: 0.05, CrashEnd: 0.6,
			DuplicateRate: 0.15, CorruptRate: 0.05,
			Protect: []network.NodeID{tree.Root()},
		}, nw.Len())
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	for _, seed := range []int64{3, 9} {
		baseRec := traceRecorderFor(400)
		base, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Faults: newPlan(seed), Trace: baseRec})
		if err != nil {
			t.Fatal(err)
		}
		want := roundFingerprint(base)
		wantTrace := goldenDigest(baseRec)

		naive, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: NewEngineNaive(), Faults: newPlan(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if got := roundFingerprint(naive); got != want {
			t.Errorf("seed %d: naive oracle diverged:\n%s", seed, firstDiff(got, want))
		}

		for _, k := range []int{4, 9} {
			for _, partKind := range []string{"grid", "seeded"} {
				t.Run(fmt.Sprintf("seed%d/%s%d", seed, partKind, k), func(t *testing.T) {
					part := network.NewGridPartition(nw, k)
					if partKind == "seeded" {
						part = network.NewSeededPartition(nw, k, seed)
					}
					rec := traceRecorderFor(400)
					res, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: NewShardedEngine(part, 4), Faults: newPlan(seed), Trace: rec})
					if err != nil {
						t.Fatal(err)
					}
					if got := roundFingerprint(res); got != want {
						t.Errorf("sharded faulted round diverged:\n%s", firstDiff(got, want))
					}
					if got := goldenDigest(rec); got != wantTrace {
						t.Errorf("sharded faulted trace diverged:\n got  %s\n want %s", got, wantTrace)
					}
					if res.Crashed == 0 {
						t.Error("fault plan crashed nobody — test exercises nothing")
					}
				})
			}
		}
	}
}

// TestRunFullRoundShardedEntry runs RunRound on a grid-partitioned
// sharded engine against the sequential baseline.
func TestRunFullRoundShardedEntry(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 300)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	base, err := RunRound(tree, f, q, fc, cfg, RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: gridEngine(tree, 8, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := roundFingerprint(res), roundFingerprint(base); got != want {
		t.Errorf("grid-sharded RunRound diverged:\n%s", firstDiff(got, want))
	}
}

// TestShardedEngineWindowScheduling pins the engine-level window
// mechanics without a radio: events land in timestamp order across
// shards, barriers fire between windows, and Steps nets out phantoms.
func TestShardedEngineWindowScheduling(t *testing.T) {
	part := &network.Partition{K: 3, Shard: []int32{0, 1, 2, 0, 1, 2}}
	se := NewShardedEngine(part, 2)
	se.SetLookahead(0.1)
	var order execOrder
	se.SetHandler(func(ev Event) { order.append(ev.Node) })
	// Same-window events on different shards, plus later windows.
	se.Shard(0).ScheduleEventAt(0.05, Event{Kind: evFlush, Node: 0})
	se.Shard(1).ScheduleEventAt(0.06, Event{Kind: evFlush, Node: 1})
	se.Shard(2).ScheduleEventAt(0.25, Event{Kind: evFlush, Node: 2})
	barriers := 0
	se.OnBarrier(func() { barriers++ })
	end := se.Run()
	if end != 0.25 {
		t.Errorf("end time %g, want 0.25", end)
	}
	if se.Steps() != 3 {
		t.Errorf("steps %d, want 3", se.Steps())
	}
	if barriers < 2 {
		t.Errorf("barriers %d, want >= 2 (one per window)", barriers)
	}
	got := order.ids
	if len(got) != 3 || got[2] != 2 {
		t.Errorf("execution order %v: the 0.25 event must run last", got)
	}
}

// TestShardedEngineFacade pins the EngineAPI facade: routing of typed
// events to the owning shard, closure placement on shard 0, the
// aggregate clock/depth/step views, and RunUntil's partial-window
// deadline semantics.
func TestShardedEngineFacade(t *testing.T) {
	part := &network.Partition{K: 2, Shard: []int32{0, 1, 0, 1}}
	se := NewShardedEngine(part, 1)
	se.SetLookahead(0.5)
	if se.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", se.Shards())
	}
	if se.Partition() != part {
		t.Fatal("Partition() does not expose the build partition")
	}
	if got := se.ShardOf(1); got != 1 {
		t.Fatalf("ShardOf(1) = %d, want 1", got)
	}
	// Synthetic addresses (broadcast pseudo-node, -1) land on shard 0.
	if got := se.ShardOf(-1); got != 0 {
		t.Fatalf("ShardOf(-1) = %d, want 0", got)
	}
	if got := se.ShardOf(99); got != 0 {
		t.Fatalf("ShardOf(99) = %d, want 0", got)
	}
	if se.Now() != 0 {
		t.Fatalf("fresh engine Now() = %g", se.Now())
	}

	var order execOrder
	se.SetHandler(func(ev Event) { order.append(ev.Node) })
	closures := 0
	se.Schedule(0.1, func() { closures++ })
	se.ScheduleAt(0.2, func() { closures++ })
	se.ScheduleEvent(1.0, Event{Kind: evFlush, Node: 1})   // -> shard 1
	se.ScheduleEventAt(2.0, Event{Kind: evFlush, Node: 2}) // -> shard 0
	if d := se.MaxQueueDepth(); d < 2 {
		t.Fatalf("MaxQueueDepth() = %d with 2 events on shard 0", d)
	}

	// Partial window: deadline 1.0 splits the second lookahead window, so
	// the t=1 event runs, the t=2 event stays queued, and every shard
	// clock lands on the deadline.
	se.RunUntil(1.0)
	if closures != 2 {
		t.Fatalf("closures run = %d, want 2", closures)
	}
	if len(order.ids) != 1 || order.ids[0] != 1 {
		t.Fatalf("events run by deadline 1.0: %v, want [1]", order.ids)
	}
	if se.Now() != 1.0 {
		t.Fatalf("Now() after RunUntil(1) = %g", se.Now())
	}
	end := se.Run()
	if end != 2.0 {
		t.Fatalf("Run() end = %g, want 2.0", end)
	}
	if len(order.ids) != 2 || order.ids[1] != 2 {
		t.Fatalf("final event order %v, want [1 2]", order.ids)
	}
	// Two typed events net of phantoms; closures are steps too.
	if se.Steps() != 4 {
		t.Fatalf("Steps() = %d, want 4", se.Steps())
	}
	se.CountPhantom(1)
	if se.Steps() != 3 {
		t.Fatalf("Steps() after CountPhantom(1) = %d, want 3", se.Steps())
	}
}

// TestEngineMaxQueueDepth pins the depth high-water mark on both
// sequential engines (the benchreport schema reports it per row).
func TestEngineMaxQueueDepth(t *testing.T) {
	for _, mk := range []func() EngineAPI{
		func() EngineAPI { return NewEngine() },
		func() EngineAPI { return NewEngineNaive() },
	} {
		eng := mk()
		eng.SetHandler(func(Event) {})
		for i := 0; i < 5; i++ {
			eng.ScheduleEvent(float64(i), Event{Kind: evFlush, Seq: int64(i)})
		}
		eng.Run()
		if d := eng.MaxQueueDepth(); d != 5 {
			t.Fatalf("%T: MaxQueueDepth = %d, want 5", eng, d)
		}
	}
}

// execOrder collects handler invocations; a mutex keeps the slice safe
// when windows run with several workers.
type execOrder struct {
	mu  sync.Mutex
	ids []network.NodeID
}

func (o *execOrder) append(id network.NodeID) {
	o.mu.Lock()
	o.ids = append(o.ids, id)
	o.mu.Unlock()
}

// firstDiff returns the first differing line of two multi-line strings,
// with context, so fingerprint mismatches are readable.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d", len(g), len(w))
}
