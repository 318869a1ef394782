package desim

import (
	"reflect"
	"testing"

	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/network"
	"isomap/internal/trace"
)

// heardQuery returns the nodes a round's trace shows hearing a flood.
func heardQuery(rec *trace.Recorder) map[network.NodeID]float64 {
	out := make(map[network.NodeID]float64)
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindQueryHeard {
			out[network.NodeID(ev.Node)] = ev.T
		}
	}
	return out
}

// TestDeltaStandingQueryFloodSchedule pins when a delta sequence floods
// the query: at round 1, RefloodRounds rounds after every flood, and at
// the round the query changes — never in between. A flood round records
// each hearing node's arrival time as its epoch offset (a re-flood keeps
// the offsets of nodes that miss it, a query change forgets them); a
// timer round wakes exactly the alive nodes holding an offset, puts no
// query frame on the air, and passes trace.Check.
func TestDeltaStandingQueryFloodSchedule(t *testing.T) {
	const k = RefloodRounds
	tree, f, q := fullRoundSetup(t, 300)
	fc, cfg := core.DefaultFilterConfig(), DefaultRadioConfig()
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	change := k + 4
	floods := map[int]bool{1: true, k + 1: true, change: true, change + k: true}
	for round := 1; round <= change+k+1; round++ {
		qr := q
		if round >= change {
			qr = changedQuery(q)
		}
		holders := 1 // the sink wakes itself
		prev := append([]float64(nil), ds.offset...)
		for i, off := range prev {
			if off >= 0 && network.NodeID(i) != tree.Root() {
				holders++
			}
		}
		rec := traceRecorderFor(300)
		res, err := RunRound(tree, dyn.At(float64(round)*0.5), qr, fc, cfg, RoundOptions{Delta: ds, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		checkTrace(t, rec, cfg)
		s := rec.Summarize()
		flooded := res.Radio.Ledger[trace.PhaseQuery].Frames > 0
		if flooded != floods[round] {
			t.Fatalf("round %d: flooded=%v, want %v (floods at 1, every %d rounds after the last, and on a query change at %d)",
				round, flooded, floods[round], k, change)
		}
		if !flooded {
			if s.QueryHeard != 0 || s.Wakes != int64(holders) || res.QueryReached != holders {
				t.Fatalf("timer round %d: %d heard, %d woke, %d reached; %d nodes hold the query",
					round, s.QueryHeard, s.Wakes, res.QueryReached, holders)
			}
			if !reflect.DeepEqual(ds.offset, prev) {
				t.Fatalf("timer round %d moved epoch offsets", round)
			}
			continue
		}
		heard := heardQuery(rec)
		if s.Wakes != 0 || len(heard) != res.QueryReached {
			t.Fatalf("flood round %d: %d woke, %d heard, %d reached", round, s.Wakes, len(heard), res.QueryReached)
		}
		for i, off := range ds.offset {
			id := network.NodeID(i)
			at, ok := heard[id]
			switch {
			case ok && off != at:
				t.Fatalf("round %d: node %d heard the flood at %g, offset %g", round, i, at, off)
			case !ok && round == change && off >= 0:
				t.Fatalf("round %d: node %d missed the changed query's flood but keeps offset %g", round, i, off)
			case !ok && round != change && off != prev[i]:
				t.Fatalf("round %d: node %d missed the re-flood, offset %g -> %g", round, i, prev[i], off)
			}
		}
	}
}

// TestDeltaResetRoundMatchesFullReport pins the session restart: after
// DeltaState.Reset the next delta round floods the query and reports
// everything, byte-identical to a full-report round on the same field in
// delivered reports, tallies, radio ledger and per-node charges, and it
// leaves the same state a fresh DeltaState would.
func TestDeltaResetRoundMatchesFullReport(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 300)
	fc, cfg := core.DefaultFilterConfig(), DefaultRadioConfig()
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tree.Network().Len()
	ds, err := NewDeltaState(nodes, DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if _, err := RunRound(tree, dyn.At(float64(round)*0.5), q, fc, cfg, RoundOptions{Delta: ds}); err != nil {
			t.Fatal(err)
		}
	}
	ds.Reset()
	snap := dyn.At(2)
	got, err := RunRound(tree, snap, q, fc, cfg, RoundOptions{Delta: ds})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunRound(tree, snap, q, fc, cfg, RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := roundFingerprint(got), roundFingerprint(want); g != w {
		t.Fatalf("round after Reset diverged from the full-report round:\n%s", firstDiff(g, w))
	}
	if got.Radio.Ledger[trace.PhaseQuery].Frames == 0 {
		t.Fatal("round after Reset did not flood the query")
	}
	fresh, err := NewDeltaState(nodes, DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRound(tree, snap, q, fc, cfg, RoundOptions{Delta: fresh}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, fresh) {
		t.Fatal("a Reset state and a fresh one diverged after the same round")
	}
}

// TestDeltaStandingQueryLossBound runs standing-query delta sequences
// at n=1000 under 20% Bernoulli loss on every link, with a fresh loss
// plan per round, on three fault seeds fixed in advance. Under
// independent loss no number of unacknowledged floods reaches every node
// for certain, so the bound is the one DESIGN.md ("Persistent query")
// argues: a held query survives loss (the nodes lacking it after a
// re-flood are a subset of those lacking it before), a node lacking it
// stays silent — no wake, no probe, no report — until a flood reaches
// it, and after three floods (round 2K+1) every alive node connected to
// the sink with at least three neighbours holds it. Nodes that missed
// the first flood and caught a re-flood must be reporting again after
// it.
func TestDeltaStandingQueryLossBound(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1000 lossy round sequences")
	}
	const k = RefloodRounds
	tree, f, q := fullRoundSetup(t, 1000)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	cfg.FrameDeadline = 1.5
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	nw := tree.Network()
	nodes := nw.Len()
	// missing returns the alive, connected nodes holding no epoch offset.
	missing := func(ds *DeltaState) map[network.NodeID]bool {
		out := make(map[network.NodeID]bool)
		for i, off := range ds.offset {
			if id := network.NodeID(i); off < 0 && tree.Reachable(id) && nw.Alive(id) {
				out[id] = true
			}
		}
		return out
	}
	rejoined := 0
	for _, seed := range []int64{1, 2, 3} {
		ds, err := NewDeltaState(nodes, DeltaConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var missedFirst, miss map[network.NodeID]bool
		counts := make([]int, 2*k+2)
		for round := 1; round <= 2*k+1; round++ {
			plan, err := faults.New(faults.Config{Seed: seed*1000 + int64(round), Channel: faults.ChannelBernoulli, LossRate: 0.2}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			rec := traceRecorderFor(nodes)
			if _, err := RunRound(tree, dyn.At(float64(round)*0.5), q, fc, cfg, RoundOptions{Faults: plan, Delta: ds, Trace: rec}); err != nil {
				t.Fatal(err)
			}
			checkTrace(t, rec, cfg)
			now := missing(ds)
			for id := range now {
				if miss != nil && !miss[id] {
					t.Fatalf("seed %d round %d: node %d lost the query it held", seed, round, id)
				}
			}
			miss = now
			counts[round] = len(miss)
			if round == 1 {
				missedFirst = miss
				continue
			}
			for _, ev := range rec.Events() {
				if !missedFirst[network.NodeID(ev.Node)] {
					continue
				}
				started := ev.Kind == trace.KindWake || ev.Kind == trace.KindGenerate ||
					(ev.Kind == trace.KindTx && ev.FrameKind == uint8(FrameProbe))
				if started && round <= k {
					t.Fatalf("seed %d round %d: node %d missed the first flood but %s before the re-flood", seed, round, ev.Node, ev.Kind)
				}
				if ev.Kind == trace.KindGenerate {
					rejoined++
				}
			}
		}
		t.Logf("seed %d: alive connected nodes without the query after rounds 1, K, 2K, 2K+1: %d %d %d %d",
			seed, counts[1], counts[k], counts[2*k], counts[2*k+1])
		for id := range miss {
			if d := len(nw.Neighbors(id)); d >= 3 {
				t.Errorf("seed %d: node %d with %d neighbours lacks the query after three floods (round %d)", seed, id, d, 2*k+1)
			}
		}
	}
	if rejoined == 0 {
		t.Error("no node that missed the first flood reported after a re-flood; the loss path is unexercised")
	}
}
