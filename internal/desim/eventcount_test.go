package desim

import (
	"testing"

	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/network"
)

// Executed-event counts (RoundResult.Events, Engine.Steps) of the three
// golden 1k rounds: the clean round of goldenTrace1k, the faulted round
// of goldenFaultTrace1k, and the delta flood round plus the timer round
// of goldenDeltaTrace1k. No trace digest covers the event count (the
// digests count trace events), so these literals are what keeps an
// engine or radio change from moving it silently. A sharded run counts
// the same events as a sequential one.
const (
	eventsClean1k      = 15370
	eventsFaulted1k    = 14192
	eventsDeltaFlood1k = 16700
	eventsDeltaTimer1k = 11269
)

// TestRoundEvents1k pins the executed-event counts of the golden 1k
// rounds on the sequential engine and on a grid-4 sharded engine.
func TestRoundEvents1k(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1000 rounds")
	}
	tree, f, q := fullRoundSetup(t, 1000)
	fc := core.DefaultFilterConfig()
	engines := []struct {
		name string
		mk   func() EngineAPI
	}{
		{"Engine", func() EngineAPI { return NewEngine() }},
		{"ShardedEngine/grid4", func() EngineAPI { return gridEngine(tree, 4, 0) }},
	}
	check := func(name string, got int64, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: Events = %d, want %d", name, got, want)
		}
	}
	for _, e := range engines {
		cfg := DefaultRadioConfig()
		res, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: e.mk()})
		if err != nil {
			t.Fatal(err)
		}
		check(e.name+"/clean", res.Events, eventsClean1k)

		cfg.FrameDeadline = 1.5
		plan, err := faults.New(faults.Config{
			Seed: 1, Channel: faults.ChannelBernoulli, LossRate: 0.05,
			CrashFraction: 0.05, CrashStart: 0.05, CrashEnd: 0.6,
			Protect: []network.NodeID{tree.Root()},
		}, tree.Network().Len())
		if err != nil {
			t.Fatal(err)
		}
		res, err = RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: e.mk(), Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		check(e.name+"/faulted", res.Events, eventsFaulted1k)

		dyn, err := field.NewTemporal("drift", f, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for n, round := range []struct {
			name string
			want int64
		}{{"flood", eventsDeltaFlood1k}, {"timer", eventsDeltaTimer1k}} {
			opt := RoundOptions{Engine: e.mk(), Delta: ds}
			res, err := RunRound(tree, dyn.At(float64(n+1)*0.5), q, fc, DefaultRadioConfig(), opt)
			if err != nil {
				t.Fatal(err)
			}
			check(e.name+"/delta/"+round.name, res.Events, round.want)
		}
	}
}
