package desim

import (
	"reflect"
	"testing"

	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/network"
)

func TestRadioChannelLossDropsAfterRetries(t *testing.T) {
	// Erase every 0->1 reception: the frame burns through its retries and
	// is dropped; the upper layer hears about it exactly once.
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetChannel(func(from, to network.NodeID) bool { return from == 0 && to == 1 })
	got, dropped := 0, 0
	r.OnReceive(1, func(network.NodeID, Frame) { got++ })
	r.OnDrop(func(f Frame) { dropped++ })
	if err := r.Send(0, 1, 16); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Errorf("delivered %d frames through an always-lossy link", got)
	}
	if dropped != 1 || r.Stats.Drops != 1 {
		t.Errorf("dropped %d (stats %d), want exactly 1", dropped, r.Stats.Drops)
	}
	if r.Stats.ChannelLosses != r.Stats.DataSent+r.Stats.Retries {
		t.Errorf("channel losses %d != transmissions %d", r.Stats.ChannelLosses, r.Stats.DataSent+r.Stats.Retries)
	}
}

func TestRadioChannelLostAcksDeduplicated(t *testing.T) {
	// Erase the reverse (ack) direction only: the data gets through every
	// time, acks never do, so the sender retries until it drops — but the
	// receiver must deliver the frame exactly once.
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetChannel(func(from, to network.NodeID) bool { return from == 1 && to == 0 })
	got := 0
	r.OnReceive(1, func(network.NodeID, Frame) { got++ })
	if err := r.Send(0, 1, 16); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 1 {
		t.Errorf("delivered %d times, want exactly 1 despite lost acks", got)
	}
	if r.Stats.Retries == 0 {
		t.Error("lost acks should force retries")
	}
}

func TestRadioFrameDeadlineBoundsRetryTail(t *testing.T) {
	nw := cliqueNetwork(t)
	eng := NewEngine()
	cfg := DefaultRadioConfig()
	cfg.FrameDeadline = 0.05
	r, err := NewRadio(eng, nw, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetChannel(func(from, to network.NodeID) bool { return true }) // total outage
	var dropAt float64
	dropped := 0
	r.OnDrop(func(f Frame) { dropped++; dropAt = eng.Now() })
	if err := r.Send(0, 1, 16); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
	// The drop must land near the deadline, well before the ~12-retry
	// exponential tail (which runs far past 0.3 s for 16-byte frames).
	if dropAt < cfg.FrameDeadline || dropAt > cfg.FrameDeadline+0.1 {
		t.Errorf("dropped at t=%.3f, want within ~[%.2f, %.2f]", dropAt, cfg.FrameDeadline, cfg.FrameDeadline+0.1)
	}
}

func TestRadioCrashStopsAllParticipation(t *testing.T) {
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	r.OnReceive(1, func(network.NodeID, Frame) { got++ })
	dropped := 0
	r.OnDrop(func(f Frame) { dropped++ })
	// The frame is queued while node 1 is alive; the crash lands while it
	// is still on the air, so the reception aborts, the acks never come,
	// and the sender's retries exhaust into a drop.
	if err := r.Send(0, 1, 16); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(1e-6, func() { r.Crash(1) })
	eng.Run()
	if got != 0 {
		t.Errorf("dead node received %d frames", got)
	}
	if dropped != 1 {
		t.Errorf("dropped %d, want 1 (the frame toward the crashed receiver)", dropped)
	}
	if nw.Alive(1) {
		t.Error("crashed node still alive")
	}
	// Once dead, the node is rejected at the Send API on both ends.
	if err := r.Send(0, 1, 16); err == nil {
		t.Error("send toward a known-dead node should error")
	}
	if err := r.Send(1, 2, 16); err == nil {
		t.Error("send from a dead node should error")
	}
	// Crashing twice is a no-op.
	r.Crash(1)
}

// TestOnDropRequeueDeliversExactlyOnce pins the transport-recovery
// contract the convergecast relies on: a dropped batch re-queued by the
// OnDrop hook reaches the destination exactly once — never zero (lost
// subtree) and never twice (duplicate reports at the sink).
func TestOnDropRequeueDeliversExactlyOnce(t *testing.T) {
	nw := cliqueNetwork(t)
	eng := NewEngine()
	cfg := DefaultRadioConfig()
	r, err := NewRadio(eng, nw, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Outage on 0->1 long enough to exhaust MaxRetries once, then clear.
	losses := 0
	r.SetChannel(func(from, to network.NodeID) bool {
		if from == 0 && to == 1 && losses <= cfg.MaxRetries {
			losses++
			return true
		}
		return false
	})
	batch := []core.Report{{Level: 6, Source: 0}}
	got, requeues := 0, 0
	r.OnReceive(1, func(network.NodeID, Frame) { got++ })
	r.OnDrop(func(f Frame) {
		requeues++
		// The dropped frame's batch is recycled when this handler
		// returns: copy it before re-queueing.
		cp := append([]core.Report(nil), f.Batch...)
		eng.Schedule(32*cfg.SlotTime, func() { _ = r.SendReports(f.From, f.To, f.Bytes, cp) })
	})
	if err := r.SendReports(0, 1, core.ReportBytes, batch); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if requeues != 1 {
		t.Errorf("re-queued %d times, want exactly 1", requeues)
	}
	if got != 1 {
		t.Errorf("delivered %d times, want exactly 1", got)
	}
}

func TestRunFullRoundFaultsEmptyPlanIdentical(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 400)
	base, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	under, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Faults: &faults.Plan{}})
	if err != nil {
		t.Fatal(err)
	}
	// Counters are freshly allocated per round; everything else must be
	// bit-identical between the no-plan and empty-plan rounds.
	base.Counters, under.Counters = nil, nil
	if !reflect.DeepEqual(base, under) {
		t.Errorf("empty plan diverged:\n base: %+v\nunder: %+v", base, under)
	}
}

func TestRunFullRoundFaultsLossDegradesGracefully(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 400)
	base, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tree2, f2, q2 := fullRoundSetup(t, 400)
	plan, err := faults.New(faults.Config{Seed: 9, Channel: faults.ChannelBernoulli, LossRate: 0.2}, 400)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRound(tree2, f2, q2, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Radio.ChannelLosses == 0 {
		t.Fatal("no channel losses at rate 0.2")
	}
	if len(res.Delivered) == 0 {
		t.Fatal("lossy round delivered nothing: not graceful")
	}
	if len(res.Delivered) >= len(base.Delivered) {
		t.Errorf("loss 0.2 delivered %d >= fault-free %d", len(res.Delivered), len(base.Delivered))
	}
	assertUniqueReports(t, res.Delivered)
}

func TestRunFullRoundFaultsCrashRouteRepair(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 900)
	plan, err := faults.New(faults.Config{
		Seed: 5, CrashFraction: 0.15, CrashStart: 0.05, CrashEnd: 0.6,
		Protect: []network.NodeID{tree.Root()},
	}, tree.Network().Len())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed == 0 {
		t.Fatal("no node crashed at fraction 0.15")
	}
	if tree.Network().Alive(tree.Root()) == false {
		t.Fatal("protected sink crashed")
	}
	if len(res.Delivered) == 0 {
		t.Fatal("crash round delivered nothing: not graceful")
	}
	if res.Repairs == 0 {
		t.Error("15% mid-round crashes should force at least one route repair")
	}
	assertUniqueReports(t, res.Delivered)
}

func TestRunFullRoundFaultsDeterministic(t *testing.T) {
	cfg := faults.Config{
		Seed: 3, Channel: faults.ChannelGilbertElliott, LossRate: 0.15, Burstiness: 0.6,
		CrashFraction: 0.1, CrashStart: 0.05, CrashEnd: 0.5,
	}
	run := func() *RoundResult {
		tree, f, q := fullRoundSetup(t, 400)
		plan, err := faults.New(cfg, 400)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		res.Counters = nil
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("faulted rounds diverged:\n a: %+v\n b: %+v", a, b)
	}
}

func TestRunFullRoundFaultsSinkMangling(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 400)
	plan, err := faults.New(faults.Config{Seed: 1, DuplicateRate: 0.5}, 400)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[core.Report]int)
	dups := 0
	for _, r := range res.Delivered {
		counts[r]++
		if counts[r] > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("duplicate rate 0.5 produced no duplicates at the sink")
	}
}

func assertUniqueReports(t *testing.T, reports []core.Report) {
	t.Helper()
	seen := make(map[core.Report]bool, len(reports))
	for _, r := range reports {
		if seen[r] {
			t.Fatalf("report %v delivered twice", r)
		}
		seen[r] = true
	}
}

// TestCrashRestoredAfterRound pins the env-reuse contract for faulted
// rounds: a crash is round-scoped, so the alive set must be fully restored
// once the round returns, and a fault-free round on the same network
// afterwards must match one on a never-faulted twin exactly.
func TestCrashRestoredAfterRound(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 400)
	n := tree.Network().Len()
	plan, err := faults.New(faults.Config{
		Seed: 5, CrashFraction: 0.2, CrashStart: 0.05, CrashEnd: 0.6,
		Protect: []network.NodeID{tree.Root()},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed == 0 {
		t.Fatal("no node crashed at fraction 0.2")
	}
	for id := 0; id < n; id++ {
		if !tree.Network().Alive(network.NodeID(id)) {
			t.Fatalf("node %d still Failed after the round returned", id)
		}
	}

	// A fault-free round on the post-crash network must equal one on a
	// never-faulted twin: no residue of the crashes may leak forward.
	after, err := RunRound(tree, f, q, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tree2, f2, q2 := fullRoundSetup(t, 400)
	fresh, err := RunRound(tree2, f2, q2, core.DefaultFilterConfig(), DefaultRadioConfig(), RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after.Counters, fresh.Counters = nil, nil
	if !reflect.DeepEqual(after, fresh) {
		t.Errorf("fault-free round after a crash round diverges from a never-faulted twin:\n after: %+v\n fresh: %+v", after, fresh)
	}
}
