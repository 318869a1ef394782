package desim

import (
	"fmt"
	"math"
	"testing"

	"isomap/internal/core"
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

// benchFullRound runs the complete packet-level round on the given
// engine constructor, reporting events/sec and ns/event alongside the
// standard time and allocation metrics.
func benchFullRound(b *testing.B, n int, mk func() EngineAPI) {
	tree, f, q := benchRoundSetup(b, n)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: mk()})
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
			benchFullRound(b, n, func() EngineAPI { return NewEngine() })
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
// engine over a grid partition, sweeping shard counts at a size where
// the per-window barrier cost is amortized. On a single-core host this
// measures the sharding overhead (windowing, mailbox barriers, trace
// merge) rather than speedup; the strong-scaling table in
// BENCH_DESIM.json is the multi-core view.
func BenchmarkFullRoundSharded(b *testing.B) {
	const n = 16000
	for _, shards := range []int{4, 16} {
		shards := shards
		b.Run(fmt.Sprintf("%s/shards=%d", kLabel(n), shards), func(b *testing.B) {
			tree, f, q := benchRoundSetup(b, n)
			fc := core.DefaultFilterConfig()
			cfg := DefaultRadioConfig()
			part := network.NewGridPartition(tree.Network(), shards)
			b.ReportAllocs()
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: NewShardedEngine(part, 0)})
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
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			}
		})
	}
}

// BenchmarkFullRoundNaive is the same round on the EngineNaive reference
// oracle — the pre-rewrite closure-per-event implementation — so the
// speedup and allocation ratios stay measurable in one `go test -bench`
// invocation. 16k is omitted: the naive engine exists for comparison,
// not for scale.
func BenchmarkFullRoundNaive(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		n := n
		b.Run(kLabel(n), func(b *testing.B) {
			benchFullRound(b, n, func() EngineAPI { return NewEngineNaive() })
		})
	}
}

// BenchmarkEngineSchedule isolates the scheduler: bursts of 1024 typed
// events — roughly the peak queue depth a 4k-node round reaches — are
// pushed with shuffled timestamps and drained, measuring pure push+pop
// cost without radio or protocol work.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := NewEngine()
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
