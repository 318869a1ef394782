package desim

import (
	"slices"
	"testing"

	"isomap/internal/field"
	"isomap/internal/metrics"
	"isomap/internal/network"
	"isomap/internal/trace"
)

// cliqueNetwork returns a 4-node clique (2x2 grid, spacing 25, radio 40
// covers the 35.36-unit diagonal).
func cliqueNetwork(t *testing.T) *network.Network {
	t.Helper()
	f := field.NewSeabed(field.DefaultSeabedConfig())
	nw, err := network.DeployGrid(4, f, 40)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// hiddenNetwork returns a 2x2 grid with radio 30: adjacent nodes (25
// apart) hear each other but diagonals (35.36 apart) do not — the classic
// hidden-terminal topology relative to any receiver.
func hiddenNetwork(t *testing.T) *network.Network {
	t.Helper()
	f := field.NewSeabed(field.DefaultSeabedConfig())
	nw, err := network.DeployGrid(4, f, 30)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRadioDelivery(t *testing.T) {
	nw := cliqueNetwork(t)
	eng := NewEngine()
	c := metrics.NewCounters(nw.Len())
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	var got []Frame
	r.OnReceive(1, func(_ network.NodeID, f *Frame) { got = append(got, *f) })
	if err := r.Send(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	if got[0].From != 0 || got[0].To != 1 {
		t.Errorf("frame = %+v", got[0])
	}
	if r.Stats.Delivered != 1 || r.Stats.DataSent != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
	// Physical accounting includes the data frame at both ends.
	if c.TxBytes(0) < 10 {
		t.Errorf("sender tx = %d", c.TxBytes(0))
	}
	if c.RxBytes(1) < 10 {
		t.Errorf("receiver rx = %d", c.RxBytes(1))
	}
	// The ack travels back.
	if c.TxBytes(1) == 0 {
		t.Error("no ack transmitted")
	}
}

func TestRadioSendValidation(t *testing.T) {
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Send(0, 1, 0); err == nil {
		t.Error("want error for empty frame")
	}
	nw.Node(1).Failed = true
	if err := r.Send(0, 1, 10); err == nil {
		t.Error("want error for dead receiver")
	}
	if _, err := NewRadio(nil, nw, DefaultRadioConfig(), nil); err == nil {
		t.Error("want error for nil engine")
	}
	bad := DefaultRadioConfig()
	bad.BitsPerSecond = 0
	if _, err := NewRadio(eng, nw, bad, nil); err == nil {
		t.Error("want error for zero bitrate")
	}
}

func TestRadioConcurrentSendersEventuallyDeliver(t *testing.T) {
	// All four nodes of a clique transmit to node 0 at once: CSMA backoff
	// plus retransmission must deliver every frame despite collisions.
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	r.OnReceive(0, func(network.NodeID, *Frame) { got++ })
	for _, src := range []network.NodeID{1, 2, 3} {
		if err := r.Send(src, 0, 20); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if got != 3 {
		t.Fatalf("delivered %d of 3 concurrent frames (stats %+v)", got, r.Stats)
	}
}

func TestRadioManyFramesUnderContention(t *testing.T) {
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const perSender = 10
	got := 0
	r.OnReceive(0, func(network.NodeID, *Frame) { got++ })
	for k := 0; k < perSender; k++ {
		for _, src := range []network.NodeID{1, 2, 3} {
			k := k
			src := src
			eng.Schedule(float64(k)*0.002, func() {
				if err := r.Send(src, 0, 12); err != nil {
					t.Error(err)
				}
			})
		}
	}
	eng.Run()
	want := perSender * 3
	if got < want-r.Stats.Drops {
		t.Fatalf("delivered %d, sent %d, drops %d (stats %+v)", got, want, r.Stats.Drops, r.Stats)
	}
	if got+r.Stats.Drops != want {
		t.Fatalf("delivered %d + drops %d != sent %d", got, r.Stats.Drops, want)
	}
}

func TestRadioNoDuplicateDeliveries(t *testing.T) {
	// Force heavy contention so acks are lost and retransmissions occur;
	// the receiver must still deliver each frame once.
	nw := cliqueNetwork(t)
	eng := NewEngine()
	cfg := DefaultRadioConfig()
	cfg.MaxRetries = 12
	r, err := NewRadio(eng, nw, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int)
	for _, dst := range []network.NodeID{0, 1} {
		dst := dst
		r.OnReceive(dst, func(_ network.NodeID, f *Frame) { seen[f.seq]++ })
	}
	id := 0
	for k := 0; k < 8; k++ {
		for _, pair := range [][2]network.NodeID{{2, 0}, {3, 1}, {1, 0}} {
			id++
			src, dst := pair[0], pair[1]
			eng.Schedule(float64(k)*0.001, func() {
				_ = r.Send(src, dst, 16)
			})
		}
	}
	eng.Run()
	for seq, count := range seen {
		if count > 1 {
			t.Fatalf("frame seq %d delivered %d times", seq, count)
		}
	}
}

func TestRadioHiddenTerminalCollides(t *testing.T) {
	// Nodes 1 (right) and 2 (top) cannot sense each other but both reach
	// node 0: simultaneous sends collide at 0, yet retransmission
	// eventually delivers both.
	nw := hiddenNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	r.OnReceive(0, func(network.NodeID, *Frame) { got++ })
	if err := r.Send(1, 0, 20); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(2, 0, 20); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if r.Stats.Collisions == 0 {
		t.Error("hidden terminals should have collided")
	}
	if got != 2 {
		t.Fatalf("delivered %d of 2 (stats %+v)", got, r.Stats)
	}
}

func TestRadioOutOfRangeNeverDelivers(t *testing.T) {
	// Diagonal nodes of the hidden topology share no link: the frame is
	// retried and finally dropped.
	nw := hiddenNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	r.OnReceive(3, func(network.NodeID, *Frame) { got++ })
	if err := r.Send(0, 3, 20); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 0 {
		t.Error("out-of-range frame delivered")
	}
	if r.Stats.Drops != 1 {
		t.Errorf("Drops = %d, want 1", r.Stats.Drops)
	}
}

func TestRadioConservationProperty(t *testing.T) {
	// Over many random workloads on a clique: every data frame either
	// delivers exactly once or is counted as a drop.
	for seed := int64(1); seed <= 8; seed++ {
		nw := cliqueNetwork(t)
		eng := NewEngine()
		cfg := DefaultRadioConfig()
		cfg.Seed = seed
		r, err := NewRadio(eng, nw, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		for id := network.NodeID(0); id < 4; id++ {
			r.OnReceive(id, func(network.NodeID, *Frame) { delivered++ })
		}
		sent := 0
		rngState := seed
		next := func(n int64) int64 {
			rngState = (rngState*6364136223846793005 + 1442695040888963407)
			v := rngState % n
			if v < 0 {
				v = -v
			}
			return v
		}
		for k := 0; k < 25; k++ {
			src := network.NodeID(next(4))
			dst := network.NodeID(next(4))
			if src == dst {
				continue
			}
			sent++
			at := float64(next(40)) * cfg.SlotTime
			s, d := src, dst
			eng.Schedule(at, func() { _ = r.Send(s, d, 8+int(next(20))) })
		}
		eng.Run()
		if delivered+r.Stats.Drops != sent {
			t.Fatalf("seed %d: delivered %d + drops %d != sent %d (stats %+v)",
				seed, delivered, r.Stats.Drops, sent, r.Stats)
		}
		if r.Stats.Delivered != delivered {
			t.Fatalf("seed %d: stats delivered %d != handler count %d", seed, r.Stats.Delivered, delivered)
		}
	}
}

func TestBroadcastReachesIntactNeighbors(t *testing.T) {
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	heard := make(map[network.NodeID]int)
	for id := network.NodeID(0); id < 4; id++ {
		id := id
		r.OnReceive(id, func(at network.NodeID, _ *Frame) { heard[at]++ })
	}
	if err := r.Broadcast(0, 8); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Quiet medium: every neighbor of 0 hears it exactly once; the sender
	// does not deliver to itself.
	for _, nb := range nw.AliveNeighbors(0) {
		if heard[nb] != 1 {
			t.Errorf("neighbor %d heard %d times", nb, heard[nb])
		}
	}
	if heard[0] != 0 {
		t.Errorf("sender heard its own broadcast %d times", heard[0])
	}
	// Validation errors.
	if err := r.Broadcast(0, 0); err == nil {
		t.Error("want error for empty broadcast")
	}
	nw.Node(2).Failed = true
	if err := r.Broadcast(2, 8); err == nil {
		t.Error("want error for dead broadcaster")
	}
}

// TestOverheardFrameSchedulesNoCompletion pins the completion-event
// elision: a unicast frame overheard by a bystander arms no completion,
// yet it still occupies the bystander's receiver, so a frame addressed
// to that node overlapping it is corrupted — both receptions count as
// collisions and nothing delivers. Once the (extended) window has passed,
// the stale reception reads as finished without any event having
// cleared it.
func TestOverheardFrameSchedulesNoCompletion(t *testing.T) {
	nw := cliqueNetwork(t)
	eng := NewEngine()
	r, err := NewRadio(eng, nw, DefaultRadioConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 is dead, so frames land only at the other two nodes.
	r.Crash(3)
	var got []Frame
	r.OnReceive(0, func(_ network.NodeID, f *Frame) { got = append(got, *f) })
	dur := r.airtime(20)
	// land parks a frame in the arena and runs its propagate event, as a
	// transmission does one propagation delay after it starts.
	land := func(f Frame) {
		slot := r.allocFrame()
		f.slot = slot
		r.frames[slot] = f
		r.propagate(Event{Kind: evPropagate, Node: f.From, Seq: f.seq, Arg: slot})
	}

	// Nodes 0 and 2 overhear 1 -> 3: no completion event is queued.
	eng.Schedule(0, func() { land(Frame{From: 1, To: 3, Bytes: 20, seq: 1}) })
	eng.RunUntil(0)
	if n := eng.queued(); n != 0 {
		t.Fatalf("overheard reception queued %d events, want 0", n)
	}

	// A frame addressed to 0 lands mid-reception: both are corrupted, the
	// window extends, and still no completion event is armed (node 1
	// only overhears it).
	eng.Schedule(dur/2, func() { land(Frame{From: 2, To: 0, Bytes: 20, seq: 2}) })
	eng.RunUntil(dur / 2)
	if n := eng.queued(); n != 0 {
		t.Fatalf("collision extension queued %d events, want 0", n)
	}
	if r.Stats.Collisions != 2 {
		t.Errorf("Collisions = %d, want 2 (the overheard frame and the addressed one)", r.Stats.Collisions)
	}

	// After the extended window a broadcast is received intact at nodes 0
	// and 1 through one completion event: the overheard reception never
	// needed an event to end.
	eng.Schedule(dur, func() {
		land(Frame{From: 2, To: broadcastAddr, Bytes: 20, seq: 3})
		if n := eng.queued(); n != 1 {
			t.Errorf("broadcast to two receivers queued %d events, want 1", n)
		}
	})
	eng.Run()
	if len(got) != 1 || got[0].seq != 3 {
		t.Fatalf("deliveries = %+v, want only the broadcast (seq 3)", got)
	}
	if r.Stats.Collisions != 2 || r.Stats.Delivered != 0 {
		t.Errorf("stats = %+v, want 2 collisions and no unicast delivery", r.Stats)
	}
	// Three landings plus the broadcast's two completed receptions: the
	// overheard and the corrupted receptions executed no completion.
	if s := eng.Steps(); s != 5 {
		t.Errorf("Steps = %d, want 5", s)
	}
}

// TestSameInstantCompletions lands several senders' frames at one
// instant: each frame's armed receptions complete through one event, run
// on the engine of the shard that owns every receiver in it, and each
// receiver still sees exactly what it would alone. The 3x3 grid with
// radio 20 links each node to its row and column neighbours only:
//
//	0 1 2
//	3 4 5
//	6 7 8
//
// Every send starts at t = 0 with the same size, so every first
// transmission completes at the same instant. Per receiver the test
// checks the delivered frames, in frame-seq order, then the merged
// Stats, the executed-event count, and that every frame slot and
// completion record is released, on the sequential engine and on grid
// and seeded 4-way partitions.
func TestSameInstantCompletions(t *testing.T) {
	f := field.NewSeabed(field.DefaultSeabedConfig())
	nw, err := network.DeployGrid(9, f, 20)
	if err != nil {
		t.Fatal(err)
	}
	const bcast = network.NodeID(-1)
	// seq is the k-th frame seq of node id (see Radio.nextSeq).
	seq := func(id network.NodeID, k int64) int64 { return (int64(id)+1)<<24 | k }
	cases := []struct {
		name  string
		sends [][2]network.NodeID // {from, to}; to == bcast broadcasts
		// batches is how many completion events the first instant runs
		// on the sequential engine: one per frame with an armed receiver.
		batches   int
		delivered map[network.NodeID][]int64 // receiver -> frame seqs
		stats     RadioStats
	}{
		{
			// Disjoint receivers: 0's broadcasts reach 1 and 3, 8's
			// unicasts reach 5 (7 overhears them). Each sender's second
			// frame waits out its own first transmission. 8's second frame
			// is still on the air when 5's ack of the first lands, so 8
			// retries the first once and 5 filters the duplicate.
			name:    "collision-free",
			sends:   [][2]network.NodeID{{0, bcast}, {8, 5}, {0, bcast}, {8, 5}},
			batches: 2,
			delivered: map[network.NodeID][]int64{
				1: {seq(0, 1), seq(0, 2)},
				3: {seq(0, 1), seq(0, 2)},
				5: {seq(8, 1), seq(8, 2)},
			},
			stats: RadioStats{DataSent: 2, Retries: 1, Delivered: 2},
		},
		{
			// Node 1 is a shared receiver of 0's, 2's and 4's broadcasts
			// (3 collisions there), 3 of 0's and 4's and 5 of 2's and 4's
			// (2 each): only 7, which hears 4 alone, delivers.
			name:      "colliding",
			sends:     [][2]network.NodeID{{0, bcast}, {2, bcast}, {4, bcast}},
			batches:   3,
			delivered: map[network.NodeID][]int64{7: {seq(4, 1)}},
			stats:     RadioStats{Collisions: 7},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(part *network.Partition) ([][]int64, RadioStats, int64) {
				var (
					radios []*Radio
					eng    EngineAPI
					shards []*Engine
				)
				if part != nil {
					se := NewShardedEngine(part, 2)
					rs, err := newShardedRadios(se, nw, DefaultRadioConfig(), nil)
					if err != nil {
						t.Fatal(err)
					}
					radios, eng = rs, se
					for s := range rs {
						shards = append(shards, se.Shard(s))
					}
				} else {
					e := NewEngine()
					r, err := NewRadio(e, nw, DefaultRadioConfig(), nil)
					if err != nil {
						t.Fatal(err)
					}
					radios, eng, shards = []*Radio{r}, e, []*Engine{e}
				}
				// Count the completion events of the first instant per
				// shard, and check each runs where its receivers live.
				first := radios[0].cfg.PropagationDelay + radios[0].airtime(20)
				finishes := make([]int, len(radios))
				for s, r := range radios {
					e := shards[s]
					e.SetHandler(func(ev Event) {
						if ev.Kind == evFinishRx {
							b := r.batches[ev.Arg]
							for _, id := range r.rxIDs[int(ev.Arg)*r.grp.stride:][:b.n] {
								if !r.localShard(id) {
									t.Errorf("shard %d completed a reception at node %d of another shard", s, id)
								}
							}
							if e.Now() == first {
								finishes[s]++
							}
						}
						r.handleEvent(ev)
					})
				}
				// Each receiver's handler runs on its own shard, so each
				// writes only its own entry.
				got := make([][]int64, nw.Len())
				for id := range got {
					radios[0].OnReceive(network.NodeID(id), func(at network.NodeID, f *Frame) {
						got[at] = append(got[at], f.seq)
					})
				}
				for _, sd := range tc.sends {
					r := radios[0]
					if part != nil {
						r = radios[part.Shard[sd[0]]]
					}
					if sd[1] == bcast {
						err = r.Broadcast(sd[0], 20)
					} else {
						err = r.Send(sd[0], sd[1], 20)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				eng.Run()
				if part == nil && finishes[0] != tc.batches {
					t.Errorf("first instant ran %d completion events, want %d", finishes[0], tc.batches)
				}
				var st RadioStats
				for _, r := range radios {
					st.add(r.Stats)
					if len(r.freeSlots) != len(r.frames) || len(r.importFree) != len(r.imports) {
						t.Errorf("shard %d: %d of %d frame slots and %d of %d import slots free after the run",
							r.shard, len(r.freeSlots), len(r.frames), len(r.importFree), len(r.imports))
					}
					if len(r.batchFree) != len(r.batches) {
						t.Errorf("shard %d: %d of %d completion records free after the run", r.shard, len(r.batchFree), len(r.batches))
					}
				}
				st.Ledger = trace.Ledger{}
				return got, st, eng.Steps()
			}

			_, _, steps := run(nil)
			for _, p := range []struct {
				name string
				part *network.Partition
			}{
				{"sequential", nil},
				{"grid4", network.NewGridPartition(nw, 4)},
				{"seeded4", network.NewSeededPartition(nw, 4, 1)},
			} {
				got, st, n := run(p.part)
				for at := range got {
					if !slices.Equal(got[at], tc.delivered[network.NodeID(at)]) {
						t.Errorf("%s: node %d delivered seqs %x, want %x", p.name, at, got[at], tc.delivered[network.NodeID(at)])
					}
				}
				if st != tc.stats {
					t.Errorf("%s: stats %+v, want %+v", p.name, st, tc.stats)
				}
				if n != steps {
					t.Errorf("%s: %d events executed, sequential %d", p.name, n, steps)
				}
			}
		})
	}
}
