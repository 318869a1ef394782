package sim

import (
	"reflect"
	"sync"
	"testing"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/field"
)

func roundScenario(seed int64) Scenario {
	return Scenario{Nodes: 500, FieldSide: 50, Seed: seed}
}

func newRoundSource(t *testing.T, r *Runner, seed int64, faultEvery int) *RoundSource {
	t.Helper()
	env, err := r.Build(roundScenario(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &RoundSource{Env: env, FaultEvery: faultEvery}
}

// TestRoundSourceDeterministic: two sources over same-seed deployments
// must emit byte-identical round streams, faulted rounds included.
func TestRoundSourceDeterministic(t *testing.T) {
	r := NewRunner(1)
	a := newRoundSource(t, r, 3, 3)
	b := newRoundSource(t, r, 3, 3)
	sawFault := false
	for round := 0; round < 6; round++ {
		ra, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d diverged between same-seed sources (faulted=%v)", round+1, ra.Faulted)
		}
		if ra.Faulted {
			sawFault = true
			if ra.Crashed == 0 {
				t.Errorf("faulted round %d crashed no nodes", ra.Round)
			}
		}
		if len(ra.Reports) == 0 {
			t.Fatalf("round %d delivered nothing", ra.Round)
		}
	}
	if !sawFault {
		t.Fatal("FaultEvery=3 produced no faulted round in 6")
	}
}

// TestRoundSourceShardedDeterministic: a source running its faulted
// rounds on a sharded engine must emit the exact stream a sequential
// source emits — same seed, same churn, every-Nth faulted rounds
// included. Sharding is an execution strategy, not a model change.
func TestRoundSourceShardedDeterministic(t *testing.T) {
	r := NewRunner(1)
	seq := newRoundSource(t, r, 3, 2)
	for _, shards := range []int{4, 9} {
		shardedSrc := newRoundSource(t, r, 3, 2)
		shardedSrc.Shards = shards
		shardedSrc.Workers = 4
		seq.round = 0 // replay the same rounds
		sawFault := false
		for round := 0; round < 4; round++ {
			ra, err := seq.Next()
			if err != nil {
				t.Fatal(err)
			}
			rb, err := shardedSrc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("shards=%d: round %d diverged from sequential (faulted=%v)",
					shards, ra.Round, ra.Faulted)
			}
			if ra.Faulted {
				sawFault = true
				if ra.Crashed == 0 {
					t.Errorf("faulted round %d crashed no nodes", ra.Round)
				}
			}
		}
		if !sawFault {
			t.Fatalf("shards=%d: no faulted round exercised", shards)
		}
	}
}

// TestRoundSourceSeek pins the checkpoint-restore lemma: a freshly built
// same-seed source seeked to round n emits the exact rounds a
// continuously advanced source emits from n+1 on — faulted rounds (fresh
// per-round plans, crash restore) included. Rounds are memoryless given
// the Env, so the round counter is the source's entire resumable state.
func TestRoundSourceSeek(t *testing.T) {
	r := NewRunner(1)
	cont := newRoundSource(t, r, 5, 2)
	var stream []*RoundData
	for round := 0; round < 6; round++ {
		rd, err := cont.Next()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, rd)
	}
	for _, seek := range []int{0, 2, 3, 5} {
		re := newRoundSource(t, r, 5, 2)
		if err := re.SeekRound(seek); err != nil {
			t.Fatal(err)
		}
		if re.Round() != seek {
			t.Fatalf("Round() after SeekRound(%d) = %d", seek, re.Round())
		}
		for i := seek; i < len(stream); i++ {
			rd, err := re.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rd, stream[i]) {
				t.Fatalf("seek %d: round %d diverged from continuous stream (faulted=%v)",
					seek, stream[i].Round, stream[i].Faulted)
			}
		}
	}
	if err := (&RoundSource{}).SeekRound(-1); err == nil {
		t.Fatal("SeekRound(-1) accepted")
	}
}

// TestConcurrentClonesSameSeedDeterminism pins the Network.Clone sharing
// contract under the race detector: many goroutines running interleaved
// rounds (fault-free and crash-faulted) on clones of one cached
// deployment must all produce the same report stream. Shared-structure
// mutation — or crash-induced Failed marks leaking past a round — breaks
// this.
func TestConcurrentClonesSameSeedDeterminism(t *testing.T) {
	r := NewRunner(1)
	const workers, rounds = 4, 5
	streams := make([][][]core.Report, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := &RoundSource{}
			env, err := r.Build(roundScenario(9))
			if err != nil {
				errs[w] = err
				return
			}
			src.Env = env
			src.FaultEvery = 2
			for round := 0; round < rounds; round++ {
				rd, err := src.Next()
				if err != nil {
					errs[w] = err
					return
				}
				streams[w] = append(streams[w], rd.Reports)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(streams[0], streams[w]) {
			t.Fatalf("worker %d's round stream diverged from worker 0's", w)
		}
	}
}

// TestRoundSourceFeedsReconstructWorkers: the serving pipeline end to
// end at the reconstruction level — churn rounds (including a
// crash-faulted one) built on the level pool, as the server builds them,
// must stay byte-identical to the sequential Reconstruct of the same
// reports, map and raster.
func TestRoundSourceFeedsReconstructWorkers(t *testing.T) {
	r := NewRunner(1)
	src := newRoundSource(t, r, 7, 3)
	env := src.Env
	levels, bounds, opts := env.Scenario.Levels, field.BoundsRect(env.Field), contour.DefaultOptions()
	sawFault := false
	for round := 0; round < 4; round++ {
		rd, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		sawFault = sawFault || rd.Faulted
		m := contour.ReconstructWorkers(rd.Reports, levels, bounds, rd.SinkValue, opts, 4)
		full := contour.Reconstruct(rd.Reports, levels, bounds, rd.SinkValue, opts)
		if err := contour.Equivalent(m, full, 64, 64); err != nil {
			t.Fatalf("round %d (faulted=%v): %v", rd.Round, rd.Faulted, err)
		}
		if err := contour.EquivalentRaster(m.RasterWorkers(64, 64, 4), full.RasterWorkers(64, 64, 1)); err != nil {
			t.Fatalf("round %d (faulted=%v) raster: %v", rd.Round, rd.Faulted, err)
		}
	}
	if !sawFault {
		t.Fatal("no faulted round reached the reconstruction")
	}
}
