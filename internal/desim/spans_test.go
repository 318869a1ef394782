package desim

import (
	"math/rand"
	"testing"
	"unsafe"

	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/network"
	"isomap/internal/trace"
)

// TestRadioHotIsOneCacheLine pins the hot record's layout: a carrier
// sense or a reception touches one 64-byte line per node.
func TestRadioHotIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(radioHot{}); size != 64 {
		t.Errorf("radioHot is %d bytes, want 64", size)
	}
}

// maxLiveSpans replays a round's transmissions from its trace and returns
// the most on-air spans any node held right after a transmit: the new
// span plus every earlier one of the node still sensable by some reader
// (end + PropagationDelay > now), which is what transmit keeps.
func maxLiveSpans(events []trace.Event, cfg RadioConfig) int {
	cfg = cfg.normalized()
	spans := make(map[int32][]txSpan)
	most := 0
	for _, e := range events {
		if e.Kind != trace.KindTx {
			continue
		}
		now := e.T
		live := spans[e.Node][:0]
		for _, sp := range spans[e.Node] {
			if sp.e+cfg.PropagationDelay > now {
				live = append(live, sp)
			}
		}
		live = append(live, txSpan{s: now, e: now + float64(e.Bytes)*8/cfg.BitsPerSecond})
		spans[e.Node] = live
		most = max(most, len(live))
	}
	return most
}

// TestLiveSpanBound pins the inline span capacity against the rounds it
// serves: over the three 1k golden rounds (clean, faulted, delta timer
// round) and a clean 4k round, no node ever holds more live spans than
// fit inline, so the spill path is the exception it is built as.
func TestLiveSpanBound(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1000 and n=4000 traced rounds")
	}
	fc := core.DefaultFilterConfig()
	check := func(name string, n int, run func(rec *trace.Recorder) RadioConfig) {
		rec := traceRecorderFor(n)
		cfg := run(rec)
		if rec.Dropped() > 0 {
			t.Fatalf("%s: trace ring overflowed", name)
		}
		most := maxLiveSpans(rec.Events(), cfg)
		t.Logf("%s: at most %d live spans per node", name, most)
		if most > inlineSpans {
			t.Errorf("%s: a node held %d live spans, more than the %d inline", name, most, inlineSpans)
		}
	}
	tree, f, q := fullRoundSetup(t, 1000)
	check("clean-1k", 1000, func(rec *trace.Recorder) RadioConfig {
		cfg := DefaultRadioConfig()
		if _, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Trace: rec}); err != nil {
			t.Fatal(err)
		}
		return cfg
	})
	check("faulted-1k", 1000, func(rec *trace.Recorder) RadioConfig {
		cfg := DefaultRadioConfig()
		cfg.FrameDeadline = 1.5
		plan, err := faults.New(faults.Config{
			Seed: 1, Channel: faults.ChannelBernoulli, LossRate: 0.05,
			CrashFraction: 0.05, CrashStart: 0.05, CrashEnd: 0.6,
			Protect: []network.NodeID{tree.Root()},
		}, tree.Network().Len())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunRound(tree, f, q, fc, cfg, RoundOptions{Faults: plan, Trace: rec}); err != nil {
			t.Fatal(err)
		}
		return cfg
	})
	check("delta-1k", 1000, func(rec *trace.Recorder) RadioConfig {
		cfg := DefaultRadioConfig()
		dyn, err := field.NewTemporal("drift", f, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for round, r := range []*trace.Recorder{nil, rec} {
			opt := RoundOptions{Delta: ds, Trace: r}
			if _, err := RunRound(tree, dyn.At(float64(round+1)*0.5), q, fc, cfg, opt); err != nil {
				t.Fatal(err)
			}
		}
		return cfg
	})
	tree4, f4, q4 := fullRoundSetup(t, 4000)
	check("clean-4k", 4000, func(rec *trace.Recorder) RadioConfig {
		cfg := DefaultRadioConfig()
		if _, err := RunRound(tree4, f4, q4, fc, cfg, RoundOptions{Trace: rec}); err != nil {
			t.Fatal(err)
		}
		return cfg
	})
}

// TestSpanOverflowMatchesSliceWalk forces the spill path — bursts of
// transmissions far denser than any round produces, so nodes hold many
// live spans at once — and requires every carrier sense to answer as the
// unbounded span list with the same pruning did, walked backwards. The
// sharded variant reads the spans of remote neighbours through the
// barrier-published view, spill included.
func TestSpanOverflowMatchesSliceWalk(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		name := "sequential"
		if sharded {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			nw := cliqueNetwork(t)
			n := nw.Len()
			cfg := DefaultRadioConfig().normalized()
			d := cfg.PropagationDelay
			var radios []*Radio
			var clocks []*Engine
			owner := func(id network.NodeID) *Radio { return radios[0] }
			if sharded {
				part := network.NewGridPartition(nw, 4)
				if part.K < 2 {
					t.Fatalf("partition has %d shards, want several", part.K)
				}
				se := NewShardedEngine(part, 1)
				var err error
				radios, err = newShardedRadios(se, nw, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range radios {
					clocks = append(clocks, se.Shard(i))
				}
				owner = func(id network.NodeID) *Radio { return radios[part.Shard[id]] }
			} else {
				eng := NewEngine()
				r, err := NewRadio(eng, nw, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				radios, clocks = []*Radio{r}, []*Engine{eng}
			}
			g := radios[0].grp

			// old is the span list before the inline layout: pruned at
			// each transmit, read by walking it backwards.
			old := make([][]txSpan, n)
			oldBusy := func(id network.NodeID, now float64) bool {
				for _, nb := range nw.Neighbors(id) {
					b := old[nb]
					for i := len(b) - 1; i >= 0; i-- {
						if b[i].s+d <= now && now < b[i].e+d {
							return true
						}
					}
				}
				return false
			}

			rng := rand.New(rand.NewSource(7))
			now, most, senses := 0.0, 0, 0
			for step := 0; step < 20000; step++ {
				now += rng.ExpFloat64() * d / 4
				for _, c := range clocks {
					c.RunUntil(now)
				}
				id := network.NodeID(rng.Intn(n))
				if rng.Intn(3) == 0 {
					sp := txSpan{s: now, e: now + (0.2+rng.Float64()*3)*d}
					r := owner(id)
					r.addSpan(id, sp, now, d)
					if sharded {
						r.markBusyDirty(id)
						g.barrier()
					}
					kept := old[id][:0]
					for _, x := range old[id] {
						if x.e+d > now {
							kept = append(kept, x)
						}
					}
					old[id] = append(kept, sp)
					if got := int(g.hot[id].live.n); got != len(old[id]) {
						t.Fatalf("step %d: node %d holds %d spans, the list %d", step, id, got, len(old[id]))
					}
					most = max(most, len(old[id]))
					continue
				}
				for v := network.NodeID(0); int(v) < n; v++ {
					senses++
					if got, want := owner(v).mediumBusy(v), oldBusy(v, now); got != want {
						t.Fatalf("step %d, t=%g: mediumBusy(%d) = %v, slice walk %v", step, now, v, got, want)
					}
				}
			}
			if most <= inlineSpans+1 {
				t.Fatalf("at most %d live spans per node: the spill path was barely exercised", most)
			}
			t.Logf("%d senses agreed; up to %d live spans per node", senses, most)
		})
	}
}
