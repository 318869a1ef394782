package desim

import (
	"fmt"
	"math"
	"testing"

	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/network"
	"isomap/internal/routing"
	"isomap/internal/trace"
)

// benchRoundSetup deploys an n-node network over the synthetic seabed with
// a radio range that keeps the graph connected at any density, mirroring
// fullRoundSetup but usable from benchmarks.
func benchRoundSetup(b *testing.B, n int) (*routing.Tree, field.Field, core.Query) {
	b.Helper()
	f := field.NewSeabed(field.DefaultSeabedConfig())
	radio := 1.5 * 50 / math.Sqrt(float64(n))
	nw, err := network.DeployUniform(n, f, radio, 4)
	if err != nil {
		b.Fatal(err)
	}
	sink, err := nw.NearestNode(nw.Bounds().Centroid())
	if err != nil {
		b.Fatal(err)
	}
	tree, err := routing.NewTree(nw, sink)
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.NewQuery(field.Levels{Low: 6, High: 12, Step: 2})
	if err != nil {
		b.Fatal(err)
	}
	return tree, f, q
}

func kLabel(n int) string {
	if n%1000 == 0 {
		return fmt.Sprintf("n=%dk", n/1000)
	}
	return fmt.Sprintf("n=%d", n)
}

// benchFullRound runs the complete packet-level round over a
// benchRoundSetup deployment on the given engine constructor, reporting
// events/sec and ns/event alongside the standard time and allocation
// metrics. With faulted set, every round
// runs under a fresh fault plan in the configuration of sim's faulted
// rounds: Bernoulli 5% loss, 5% of nodes crashing in [0.05, 0.6] s, on
// the radio with a 1.5 s frame deadline. Building the plan is part of the
// timed round, as it is in sim.
func benchFullRound(b *testing.B, tree *routing.Tree, f field.Field, q core.Query, mk func() EngineAPI, faulted bool) {
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	if faulted {
		cfg.FrameDeadline = 1.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		opt := RoundOptions{Engine: mk()}
		if faulted {
			plan, err := faults.New(faults.Config{
				Seed: int64(i) + 1, Channel: faults.ChannelBernoulli, LossRate: 0.05,
				CrashFraction: 0.05, CrashStart: 0.05, CrashEnd: 0.6,
				Protect: []network.NodeID{tree.Root()},
			}, tree.Network().Len())
			if err != nil {
				b.Fatal(err)
			}
			opt.Faults = plan
		}
		res, err := RunRound(tree, f, q, fc, cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Delivered) == 0 {
			b.Fatal("round delivered nothing")
		}
		events += res.Events
	}
	b.StopTimer()
	if events > 0 {
		perRound := float64(events) / float64(b.N)
		b.ReportMetric(perRound/(b.Elapsed().Seconds()/float64(b.N)), "events/sec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// BenchmarkFullRound measures a complete packet-level Iso-Map round
// (query flood, probes, filtered convergecast) at increasing network
// sizes on the production engine.
func BenchmarkFullRound(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		n := n
		b.Run(kLabel(n), func(b *testing.B) {
			tree, f, q := benchRoundSetup(b, n)
			benchFullRound(b, tree, f, q, func() EngineAPI { return NewEngine() }, false)
		})
	}
}

// BenchmarkFullRoundFaulted is BenchmarkFullRound under a fault plan: a
// lossy channel drawn per reception on every directed link a frame
// reaches, plus mid-round crashes with route repair. It is the packet
// path the faulted rounds of sim.RoundSource take.
func BenchmarkFullRoundFaulted(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		n := n
		b.Run(kLabel(n), func(b *testing.B) {
			tree, f, q := benchRoundSetup(b, n)
			benchFullRound(b, tree, f, q, func() EngineAPI { return NewEngine() }, true)
		})
	}
}

// BenchmarkFullRoundTraced is BenchmarkFullRound with a recorder
// attached: the delta against the untraced run is the whole cost of the
// observability layer (one ring store per event, no allocations).
func BenchmarkFullRoundTraced(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		n := n
		b.Run(kLabel(n), func(b *testing.B) {
			tree, f, q := benchRoundSetup(b, n)
			fc := core.DefaultFilterConfig()
			cfg := DefaultRadioConfig()
			rec := trace.NewRecorder(n * 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Reset()
				res, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Trace: rec})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Delivered) == 0 || rec.Total() == 0 {
					b.Fatal("round delivered nothing or recorded nothing")
				}
			}
		})
	}
}

// BenchmarkFullRoundSharded runs the round on the sharded parallel
// engine over a grid partition. The 16k rows sweep shard counts at a size
// where the per-window barrier cost is amortized. The 256k rows are the
// strong-scaling table: shards=1 is the sequential Engine anchor, and
// `-cpu 1,2,4,8` supplies the GOMAXPROCS axis (the sharded engine runs
// GOMAXPROCS workers). Where GOMAXPROCS exceeds the core count this
// measures the sharding overhead (windowing, mailbox barriers, trace
// merge) rather than speedup. Each size is deployed once, outside the
// timer, and shared by its rows.
func BenchmarkFullRoundSharded(b *testing.B) {
	for _, size := range []struct {
		n      int
		shards []int
	}{
		{16000, []int{4, 16}},
		{256000, []int{1, 4, 16, 64}},
	} {
		var tree *routing.Tree
		var f field.Field
		var q core.Query
		for _, shards := range size.shards {
			b.Run(fmt.Sprintf("%s/shards=%d", kLabel(size.n), shards), func(b *testing.B) {
				if tree == nil {
					tree, f, q = benchRoundSetup(b, size.n)
				}
				mk := func() EngineAPI { return NewEngine() }
				if shards > 1 {
					part := network.NewGridPartition(tree.Network(), shards)
					mk = func() EngineAPI { return NewShardedEngine(part, 0) }
				}
				benchFullRound(b, tree, f, q, mk, false)
			})
		}
	}
}

// BenchmarkFullRoundNaive is the same round on the test-only EngineNaive
// reference oracle — the pre-rewrite closure-per-event implementation — so
// the speedup and allocation ratios stay measurable in one `go test -bench`
// invocation. 16k is omitted: the naive engine exists for comparison,
// not for scale.
func BenchmarkFullRoundNaive(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		n := n
		b.Run(kLabel(n), func(b *testing.B) {
			tree, f, q := benchRoundSetup(b, n)
			benchFullRound(b, tree, f, q, func() EngineAPI { return NewEngineNaive() }, false)
		})
	}
}

// BenchmarkEngineSchedule isolates the scheduler: bursts of 1024 typed
// events — roughly the peak queue depth a 4k-node round reaches — are
// pushed with shuffled timestamps and drained, measuring pure push+pop
// cost without radio or protocol work.
func BenchmarkEngineSchedule(b *testing.B) { benchSchedule(b, NewEngine()) }

// BenchmarkEngineScheduleNaive is the same scheduler workload on the
// EngineNaive reference oracle.
func BenchmarkEngineScheduleNaive(b *testing.B) { benchSchedule(b, NewEngineNaive()) }

func benchSchedule(b *testing.B, eng EngineAPI) {
	eng.SetHandler(func(Event) {})
	const burst = 1024
	for i := 0; i < burst; i++ {
		eng.ScheduleEvent(float64(i)*1e-4, Event{Kind: evMeasure, Seq: int64(i)})
	}
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 509 is coprime to 1024: timestamps arrive in scattered order.
		eng.ScheduleEvent(float64(i*509%burst)*1e-4, Event{Kind: evMeasure, Seq: int64(i), Arg: int32(i)})
		if i%burst == burst-1 {
			eng.Run()
		}
	}
	eng.Run()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
