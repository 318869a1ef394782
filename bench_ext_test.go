// Benchmarks for the extension experiments and substrates that go beyond
// the paper's figures: sensing noise, regression scope, lossy links,
// continuous monitoring, slotted scheduling and DV-hop localization.
package isomap_test

import (
	"testing"

	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/localize"
	"isomap/internal/schedule"
	"isomap/internal/sim"
)

func BenchmarkExtNoiseSweep(b *testing.B) {
	benchTable(b, func() (*sim.Table, error) { return sim.ExtNoiseSweep(1) })
}

func BenchmarkExtScopeSweep(b *testing.B) {
	benchTable(b, func() (*sim.Table, error) { return sim.ExtScopeSweep(1) })
}

func BenchmarkExtLossSweep(b *testing.B) { benchTable(b, sim.ExtLossSweep) }

func BenchmarkExtMonitorRounds(b *testing.B) {
	benchTable(b, func() (*sim.Table, error) { return sim.ExtMonitorRounds(6) })
}

func BenchmarkExtLatencySweep(b *testing.B) { benchTable(b, sim.ExtLatencySweep) }

func BenchmarkExtLocalizeSweep(b *testing.B) {
	benchTable(b, func() (*sim.Table, error) { return sim.ExtLocalizeSweep(1) })
}

// BenchmarkDVHop measures one full localization pass on the reference
// deployment with 16 anchors.
func BenchmarkDVHop(b *testing.B) {
	env, err := sim.Build(sim.Scenario{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	anchors, err := localize.SpreadAnchors(env.Network, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := localize.DVHop(env.Network, anchors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanEpoch measures the slotted-schedule derivation for a
// filtered Iso-Map round.
func BenchmarkPlanEpoch(b *testing.B) {
	env, err := sim.Build(sim.Scenario{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	env.Network.Sense(env.Field)
	generated := core.DetectIsolineNodes(env.Network, env.Query, nil)
	d := core.DeliverReportsDetailed(env.Tree, generated, core.DefaultFilterConfig(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.PlanEpoch(env.Tree, d, core.ReportBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtMACSweep(b *testing.B) { benchTable(b, sim.ExtMACSweep) }

// BenchmarkPacketCollection measures one packet-level CSMA/CA collection
// of a filtered Iso-Map round at the reference size.
func BenchmarkPacketCollection(b *testing.B) {
	env, err := sim.Build(sim.Scenario{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	env.Network.Sense(env.Field)
	generated := core.DetectIsolineNodes(env.Network, env.Query, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := desim.CollectReports(env.Tree, generated, core.DefaultFilterConfig(), desim.DefaultRadioConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Delivered) == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

func BenchmarkExtLifetimeSweep(b *testing.B) { benchTable(b, sim.ExtLifetimeSweep) }

// BenchmarkFullPacketRound measures an entire Iso-Map round (query flood,
// probes, regression, filtered convergecast) on the discrete-event radio.
func BenchmarkFullPacketRound(b *testing.B) {
	env, err := sim.Build(sim.Scenario{Nodes: 900, FieldSide: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := desim.RunRound(env.Tree, env.Field, env.Query, core.DefaultFilterConfig(), desim.DefaultRadioConfig(), desim.RoundOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Delivered) == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

func BenchmarkExtDetectPolicySweep(b *testing.B) {
	benchTable(b, func() (*sim.Table, error) { return sim.ExtDetectPolicySweep(1) })
}

func BenchmarkExtCodecSweep(b *testing.B) {
	benchTable(b, func() (*sim.Table, error) { return sim.ExtCodecSweep(1) })
}
