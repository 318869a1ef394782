// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. 5) and the extension sweeps: BenchmarkExperiments/<id> produces the
// series of one sim.Experiments entry once per iteration; run a single
// full regeneration with:
//
//	go test -bench=Experiments -benchmem
//
// The reported series themselves are printed by cmd/experiments; here the
// benchmarks measure the cost of regenerating them and keep every
// experiment path exercised under -bench.
package isomap_test

import (
	"math/rand"
	"testing"

	"isomap"
	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/sim"
)

// benchRunner is the runner every benchmark here builds on; like a long
// experiments run, it keeps its deployment cache across iterations.
var benchRunner = sim.NewRunner(0)

// BenchmarkExperiments regenerates each entry of sim.Experiments at
// runs = 1, one sub-benchmark per ID (BenchmarkExperiments/fig11a, …).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range sim.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb, err := e.Run(benchRunner, 1)
				if err != nil {
					b.Fatal(err)
				}
				if len(tb.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkAllFiguresSequential and BenchmarkAllFiguresParallel regenerate
// the complete figure set on a fresh Runner per iteration (so no cache
// state leaks between iterations) at pool width 1 vs GOMAXPROCS. On a
// multi-core machine the parallel variant shows the worker-pool speedup;
// the outputs are byte-identical either way.
func BenchmarkAllFiguresSequential(b *testing.B) { benchAllFigures(b, 1) }
func BenchmarkAllFiguresParallel(b *testing.B)   { benchAllFigures(b, 0) }

func benchAllFigures(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := sim.NewRunner(parallel).AllFigures(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// --- Component micro-benchmarks ---

// BenchmarkProtocolRound measures one full Iso-Map round (sense, detect,
// regress, filter, deliver) on the reference 2,500-node deployment.
func BenchmarkProtocolRound(b *testing.B) {
	env, err := benchRunner.Build(sim.Scenario{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(env.Tree, env.Field, env.Query, core.DefaultFilterConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstruction measures the sink-side map generation from a
// fixed report set.
func BenchmarkReconstruction(b *testing.B) {
	env, err := benchRunner.Build(sim.Scenario{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(env.Tree, env.Field, env.Query, core.DefaultFilterConfig())
	if err != nil {
		b.Fatal(err)
	}
	bounds := field.BoundsRect(env.Field)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := contour.Reconstruct(res.Reports, env.Query.Levels, bounds, res.SinkValue, contour.DefaultOptions())
		if m == nil {
			b.Fatal("nil map")
		}
	}
}

// BenchmarkGradientRegression measures the per-isoline-node local model
// fit at the paper's average degree (~7 neighbors).
func BenchmarkGradientRegression(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]core.Sample, 8)
	for i := range samples {
		p := geom.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}
		samples[i] = core.Sample{Pos: p, Value: 9 + 0.4*p.X - 0.2*p.Y}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GradientByRegression(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVoronoi measures the bounded Voronoi construction at the sink
// for a typical per-level report count.
func BenchmarkVoronoi(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sites := make([]geom.Point, 100)
	for i := range sites {
		sites[i] = geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
	}
	bounds := geom.Rect(0, 0, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := geom.Voronoi(sites, bounds)
		if len(d.Cells) != len(sites) {
			b.Fatal("bad diagram")
		}
	}
}

// BenchmarkQuickstartAPI measures the one-call public API end to end.
func BenchmarkQuickstartAPI(b *testing.B) {
	f := isomap.DefaultSeabed()
	levels := isomap.Levels{Low: 6, High: 12, Step: 2}
	for i := 0; i < b.N; i++ {
		if _, _, err := isomap.MapField(f, 2500, 1.5, 1, levels); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationFilterOff quantifies the traffic cost of disabling
// in-network filtering (Sec. 3.5's trade-off).
func BenchmarkAblationFilterOff(b *testing.B) {
	fc := core.FilterConfig{Enabled: false}
	env, err := benchRunner.Build(sim.Scenario{Seed: 1, Filter: &fc})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var kb float64
	for i := 0; i < b.N; i++ {
		st, _, err := env.RunIsoMap()
		if err != nil {
			b.Fatal(err)
		}
		kb = st.TrafficKB
	}
	b.ReportMetric(kb, "trafficKB")
}

// BenchmarkAblationRegulationOff quantifies the accuracy impact of
// skipping regulation Rules 1-2 at the sink.
func BenchmarkAblationRegulationOff(b *testing.B) {
	env, err := benchRunner.Build(sim.Scenario{Seed: 1, Regulate: false, RegulateSet: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		st, _, err := env.RunIsoMap()
		if err != nil {
			b.Fatal(err)
		}
		acc = st.Accuracy
	}
	b.ReportMetric(acc*100, "accuracy%")
}

// BenchmarkAblationWideEpsilon quantifies the wide border-region setting
// (eps = 0.2T) the paper discusses for sparse deployments.
func BenchmarkAblationWideEpsilon(b *testing.B) {
	env, err := benchRunner.Build(sim.Scenario{Seed: 1, Epsilon: 0.4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var gen int64
	for i := 0; i < b.N; i++ {
		st, _, err := env.RunIsoMap()
		if err != nil {
			b.Fatal(err)
		}
		gen = st.Generated
	}
	b.ReportMetric(float64(gen), "reports")
}
