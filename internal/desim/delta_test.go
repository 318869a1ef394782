package desim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/monitor"
	"isomap/internal/network"
	"isomap/internal/trace"
)

func TestNewDeltaStateValidation(t *testing.T) {
	if _, err := NewDeltaState(0, DeltaConfig{}); err == nil {
		t.Error("accepted zero nodes")
	}
	for _, angle := range []float64{math.NaN(), math.Inf(1), -0.1, math.Pi + 0.1} {
		if _, err := NewDeltaState(10, DeltaConfig{GradAngle: angle}); err == nil {
			t.Errorf("accepted gradient angle %v", angle)
		}
	}
	ds, err := NewDeltaState(10, DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.GradAngle() != DefaultGradAngle {
		t.Errorf("zero angle resolved to %v, want default %v", ds.GradAngle(), DefaultGradAngle)
	}
	if ds.Nodes() != 10 || ds.Tracked() != 0 {
		t.Errorf("fresh state: nodes=%d tracked=%d", ds.Nodes(), ds.Tracked())
	}
}

// TestSentSetMatchesMap drives a node's sent set with random puts and
// removals over more isolevels than it holds inline and checks it
// against a map oracle after every step: same reports, same count,
// lookups agree, and an emptied set reuses its overflow without loss.
func TestSentSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s sentSet
	oracle := map[int]core.Report{}
	for step := 0; step < 5000; step++ {
		li := rng.Intn(6)
		if rng.Intn(3) == 0 {
			if i := s.find(li); i >= 0 {
				if got := *s.at(i); got != oracle[li] {
					t.Fatalf("step %d: removing level %d found %v, oracle %v", step, li, got, oracle[li])
				}
				s.remove(i)
				delete(oracle, li)
			} else if _, ok := oracle[li]; ok {
				t.Fatalf("step %d: level %d tracked by the oracle, not found", step, li)
			}
		} else {
			r := core.Report{Level: float64(li), LevelIndex: li, Grad: geom.Vec{X: rng.Float64(), Y: rng.Float64()}}
			s.put(r)
			oracle[li] = r
		}
		if int(s.n) != len(oracle) {
			t.Fatalf("step %d: set holds %d reports, oracle %d", step, s.n, len(oracle))
		}
		seen := map[int]bool{}
		for i := range int(s.n) {
			r := *s.at(i)
			if seen[r.LevelIndex] || oracle[r.LevelIndex] != r {
				t.Fatalf("step %d: entry %d = %v (duplicate %v), oracle %v", step, i, r, seen[r.LevelIndex], oracle[r.LevelIndex])
			}
			seen[r.LevelIndex] = true
		}
	}
}

// sortReports canonicalizes a report batch into the aged belief's
// (source, isolevel) order, so full-round deliveries and belief dumps
// feed reconstruction identically.
func sortReports(rs []core.Report) []core.Report {
	out := append([]core.Report(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].LevelIndex < out[j].LevelIndex
	})
	return out
}

// reconstructed builds the sink-side map from a (canonically ordered)
// report batch, the way the serving layer does.
func reconstructed(t *testing.T, tree interface {
	Root() network.NodeID
	Network() *network.Network
}, f field.Field, q core.Query, reports []core.Report) *contour.Map {
	t.Helper()
	sink := tree.Network().Node(tree.Root()).Value
	return contour.Reconstruct(reports, q.Levels, field.BoundsRect(f), sink, contour.Options{})
}

// TestDeltaStaticFieldEquivalence is the protocol's ground-truth
// property: on a static field with aging disabled, the delta protocol's
// reconstructed map is byte-identical to the full-report round's — at
// every round, and at shard widths 1 and 4. Round one transmits
// everything (empty source state), later rounds suppress everything, and
// the sink belief must hold exactly the full round's delivered set.
func TestDeltaStaticFieldEquivalence(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 300)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()

	full, err := RunRound(tree, f, q, fc, cfg, RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantReports := sortReports(full.Delivered)
	wantMap := reconstructed(t, tree, f, q, wantReports)
	wantRaster := wantMap.RasterWorkers(80, 80, 1)

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ds, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
			if err != nil {
				t.Fatal(err)
			}
			aged, err := monitor.NewAgedMap(monitor.AgedConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var frames []int
			for round := 1; round <= 3; round++ {
				var res *RoundResult
				if shards > 1 {
					res, err = RunRound(tree, f, q, fc, cfg, RoundOptions{Engine: gridEngine(tree, shards, 0), Delta: ds})
				} else {
					res, err = RunRound(tree, f, q, fc, cfg, RoundOptions{Delta: ds})
				}
				if err != nil {
					t.Fatal(err)
				}
				aged.Apply(round, res.Delivered, nil)
				frames = append(frames, res.Radio.DataSent)

				got := aged.Reports()
				if !reflect.DeepEqual(got, wantReports) {
					t.Fatalf("round %d: belief (%d reports) != full delivered set (%d)",
						round, len(got), len(wantReports))
				}
				m := reconstructed(t, tree, f, q, got)
				if !reflect.DeepEqual(m.RasterWorkers(80, 80, 1).Cells, wantRaster.Cells) {
					t.Fatalf("round %d: delta raster diverged from full-report raster", round)
				}
				for i := range q.Levels.Values() {
					if !reflect.DeepEqual(m.BoundarySegments(i), wantMap.BoundarySegments(i)) {
						t.Fatalf("round %d level %d: delta polylines diverged", round, i)
					}
				}
				if round == 1 {
					if res.Crossings == 0 || res.Suppressed != 0 {
						t.Fatalf("round 1: crossings=%d suppressed=%d, want all-crossing",
							res.Crossings, res.Suppressed)
					}
				} else {
					if res.Crossings != 0 || res.Retired != 0 {
						t.Fatalf("round %d on a static field: crossings=%d retired=%d, want pure suppression",
							round, res.Crossings, res.Retired)
					}
					if res.Suppressed == 0 {
						t.Fatalf("round %d: nothing suppressed", round)
					}
				}
			}
			// The traffic claim itself: once the sink knows the map,
			// steady-state rounds carry only the measurement machinery
			// (probe replies) — the report convergecast disappears, so they
			// move strictly fewer data frames than the seeding round.
			if frames[1] >= frames[0] || frames[2] >= frames[0] {
				t.Errorf("steady-state delta rounds did not shed report traffic: %v", frames)
			}
			if frames[1] != frames[2] {
				t.Errorf("steady-state rounds diverged on a static field: %v", frames)
			}
		})
	}
}

// changedQuery is q with a wider border tolerance: a different standing
// query, which the next delta round must flood.
func changedQuery(q core.Query) core.Query {
	q.Epsilon *= 1.5
	return q
}

// queryAt is the query of round n in the equivalence sequences: the base
// query through the standing query's first re-flood (round K+1), then a
// changed one from round K+3, so the sequence crosses both flood
// triggers.
func queryAt(q core.Query, n int) core.Query {
	if n >= RefloodRounds+3 {
		return changedQuery(q)
	}
	return q
}

// TestDeltaShardedEquivalenceDrifting pins sequential ≡ sharded on the
// interesting case: a drifting field where rounds mix crossings,
// suppressions and retirements, across a standing-query re-flood and a
// query change. Both executions must produce identical delivered
// batches, tallies, radio stats and delta state every round.
func TestDeltaShardedEquivalenceDrifting(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 300)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	dsSeq, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dsShard, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	retired := 0
	for round := 1; round <= RefloodRounds+3; round++ {
		snap, qr := dyn.At(float64(round)*0.5), queryAt(q, round)
		seq, err := RunRound(tree, snap, qr, fc, cfg, RoundOptions{Delta: dsSeq})
		if err != nil {
			t.Fatal(err)
		}
		shard, err := RunRound(tree, snap, qr, fc, cfg, RoundOptions{Engine: gridEngine(tree, 4, 0), Delta: dsShard})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Delivered, shard.Delivered) {
			t.Fatalf("round %d: sharded delivered batch diverged", round)
		}
		if seq.Crossings != shard.Crossings || seq.Suppressed != shard.Suppressed || seq.Retired != shard.Retired {
			t.Fatalf("round %d: tallies diverged: seq %d/%d/%d shard %d/%d/%d", round,
				seq.Crossings, seq.Suppressed, seq.Retired,
				shard.Crossings, shard.Suppressed, shard.Retired)
		}
		if seq.Radio != shard.Radio {
			t.Fatalf("round %d: radio stats diverged: %+v vs %+v", round, seq.Radio, shard.Radio)
		}
		if !reflect.DeepEqual(dsSeq, dsShard) {
			t.Fatalf("round %d: delta state diverged", round)
		}
		retired += seq.Retired
	}
	if retired == 0 {
		t.Error("drifting rounds retired nothing; field evolution too slow to exercise crossings-out")
	}
}

// TestDeltaDenseLevelsOverflow runs drifting delta rounds under a query
// whose border regions are wider than its level step, so nodes straddle
// several isolevels at once and sent sets spill past their inline
// report. NewQueryEpsilon rejects such a query, but the struct can be
// built directly and a round must stay exact for it: the tallies must
// account for every tracked report, and the sharded run must match the
// sequential one report for report.
func TestDeltaDenseLevelsOverflow(t *testing.T) {
	tree, f, _ := fullRoundSetup(t, 300)
	q := core.Query{Levels: field.Levels{Low: 6, High: 12, Step: 0.5}, Epsilon: 0.6, HopScope: 1}
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	dsSeq, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dsShard, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spilled, tracked := false, 0
	for round := 1; round <= 4; round++ {
		snap := dyn.At(float64(round) * 0.5)
		seq, err := RunRound(tree, snap, q, fc, cfg, RoundOptions{Delta: dsSeq})
		if err != nil {
			t.Fatal(err)
		}
		shard, err := RunRound(tree, snap, q, fc, cfg, RoundOptions{Engine: gridEngine(tree, 4, 0), Delta: dsShard})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Delivered, shard.Delivered) || !reflect.DeepEqual(dsSeq, dsShard) {
			t.Fatalf("round %d: sharded round or delta state diverged", round)
		}
		// Every crossing-in starts or refreshes a tracked report and every
		// retirement ends one; refreshes keep the count.
		if got := dsSeq.Tracked(); got > tracked+seq.Crossings-seq.Retired || got < tracked-seq.Retired {
			t.Fatalf("round %d: tracked %d outside [%d, %d]", round, got, tracked-seq.Retired, tracked+seq.Crossings-seq.Retired)
		}
		tracked = dsSeq.Tracked()
		for i := range dsSeq.lastSent {
			spilled = spilled || dsSeq.lastSent[i].n > 1
		}
	}
	if !spilled {
		t.Error("no node tracked two isolevels; the query is too sparse to reach the overflow")
	}
}

// TestDeltaRoundOptionsEquivalence covers the RoundOptions cells no other
// test reaches: delta rounds on the EngineNaive oracle, and delta rounds
// under seeded lossy-channel and crash plans on a grid-sharded engine.
// Over a drifting field, across a standing-query re-flood and a query
// change, every round must match the sequential Engine run in result,
// delta tallies and canonical trace, and leave an equal DeltaState
// behind.
func TestDeltaRoundOptionsEquivalence(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 300)
	fc := core.DefaultFilterConfig()
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tree.Network().Len()
	faultPlan := func(round int) *faults.Plan {
		plan, err := faults.New(faults.Config{
			Seed: int64(round) * 31, Channel: faults.ChannelBernoulli, LossRate: 0.08,
			CrashFraction: 0.05, CrashStart: 0.05, CrashEnd: 0.6,
			Protect: []network.NodeID{tree.Root()},
		}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	deadlineCfg := DefaultRadioConfig()
	deadlineCfg.FrameDeadline = 1.5

	cases := []struct {
		name   string
		cfg    RadioConfig
		engine func() EngineAPI
		plan   func(round int) *faults.Plan
	}{
		{"naive", DefaultRadioConfig(), func() EngineAPI { return NewEngineNaive() },
			func(int) *faults.Plan { return nil }},
		{"faulted-grid4", deadlineCfg, func() EngineAPI { return gridEngine(tree, 4, 0) }, faultPlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dsWant, err := NewDeltaState(nodes, DeltaConfig{})
			if err != nil {
				t.Fatal(err)
			}
			dsGot, err := NewDeltaState(nodes, DeltaConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var crashed, retired int
			for round := 1; round <= RefloodRounds+3; round++ {
				snap, qr := dyn.At(float64(round)*0.5), queryAt(q, round)
				wantRec, gotRec := traceRecorderFor(300), traceRecorderFor(300)
				want, err := RunRound(tree, snap, qr, fc, tc.cfg, RoundOptions{Faults: tc.plan(round), Delta: dsWant, Trace: wantRec})
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunRound(tree, snap, qr, fc, tc.cfg, RoundOptions{Engine: tc.engine(), Faults: tc.plan(round), Delta: dsGot, Trace: gotRec})
				if err != nil {
					t.Fatal(err)
				}
				if g, w := roundFingerprint(got), roundFingerprint(want); g != w {
					t.Fatalf("round %d: result diverged:\n%s", round, firstDiff(g, w))
				}
				if !reflect.DeepEqual(got.Delivered, want.Delivered) {
					t.Fatalf("round %d: delivered batch diverged", round)
				}
				if got.Crossings != want.Crossings || got.Suppressed != want.Suppressed || got.Retired != want.Retired {
					t.Fatalf("round %d: tallies diverged: got %d/%d/%d want %d/%d/%d", round,
						got.Crossings, got.Suppressed, got.Retired,
						want.Crossings, want.Suppressed, want.Retired)
				}
				if g, w := goldenDeltaDigest(gotRec), goldenDeltaDigest(wantRec); g != w {
					t.Fatalf("round %d: trace diverged:\n got  %s\n want %s", round, g, w)
				}
				if !reflect.DeepEqual(dsGot, dsWant) {
					t.Fatalf("round %d: delta state diverged", round)
				}
				crashed += want.Crashed
				retired += want.Retired
			}
			if retired == 0 {
				t.Error("drifting rounds retired nothing; crossings-out unexercised")
			}
			if tc.plan(1) != nil && crashed == 0 {
				t.Error("fault plans crashed nobody; test exercises nothing")
			}
		})
	}
}

// TestDeltaTraceInvariants runs the invariant oracle on delta rounds
// over a drifting field: frame conservation, time order and sink
// accounting must hold for the delta vocabulary too (retire records
// count as sink deliveries).
func TestDeltaTraceInvariants(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 300)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var crossings, suppressed int64
	for round := 1; round <= 3; round++ {
		rec := traceRecorderFor(300)
		if _, err := RunRound(tree, dyn.At(float64(round)*0.5), q, fc, cfg, RoundOptions{Delta: ds, Trace: rec}); err != nil {
			t.Fatal(err)
		}
		if v := rec.Check(trace.CheckConfig{MaxRetries: cfg.MaxRetries}); len(v) > 0 {
			t.Fatalf("round %d: %d invariant violations, first: %v", round, len(v), v[0])
		}
		s := rec.Summarize()
		crossings += s.Crossings
		suppressed += s.Suppressed
	}
	if crossings == 0 || suppressed == 0 {
		t.Errorf("delta vocabulary unexercised: crossings=%d suppressed=%d", crossings, suppressed)
	}
}

// TestDeltaTraceInvariantsSeededFaults is the property form under fault
// plans: lossy channels and mid-round crashes must not break any trace
// invariant in delta mode (in particular sink accounting with retire
// records in flight).
func TestDeltaTraceInvariantsSeededFaults(t *testing.T) {
	tree, f, q := fullRoundSetup(t, 300)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	cfg.FrameDeadline = 1.5
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tree.Network().Len()

	property := func(seed uint8) bool {
		ds, err := NewDeltaState(nodes, DeltaConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= 2; round++ {
			plan, err := faults.New(faults.Config{
				Seed: int64(seed)*10 + int64(round), Channel: faults.ChannelBernoulli, LossRate: 0.08,
				CrashFraction: 0.05, CrashStart: 0.05, CrashEnd: 0.6,
				Protect: []network.NodeID{tree.Root()},
			}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			rec := traceRecorderFor(300)
			if _, err := RunRound(tree, dyn.At(float64(round)*0.5), q, fc, cfg, RoundOptions{Faults: plan, Delta: ds, Trace: rec}); err != nil {
				t.Fatal(err)
			}
			if v := rec.Check(trace.CheckConfig{MaxRetries: cfg.MaxRetries}); len(v) > 0 {
				t.Logf("seed %d round %d: first violation: %v", seed, round, v[0])
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// goldenDeltaDigest extends the golden fingerprint with the delta-mode
// counters so regressions in the new vocabulary surface in the literal.
func goldenDeltaDigest(rec *trace.Recorder) string {
	s := rec.Summarize()
	return fmt.Sprintf("%s crossings=%d suppressed=%d", goldenDigest(rec), s.Crossings, s.Suppressed)
}

// goldenDeltaTrace1k is the committed digest of the n=1000 seed-scenario
// *second* delta round over the drifting field (the first round seeds the
// source state and the standing query untraced, so the traced round is a
// timer round — wakes, no flood — that mixes crossings, suppressions and
// retirements). Regenerate with:
// go test -run TestGoldenDeltaTrace1k -v ./internal/desim (the failure
// message prints the new value). Literal comparison gated to amd64 like
// goldenTrace1k; the sequential-vs-sharded equality runs everywhere.
const goldenDeltaTrace1k = "events=15100 sends=678 delivered=3540 acked=678 drops=0 queryheard=0 generated=92 sinkreports=66 md5=3bc693c7e44f99add2e03c625a3667ef crossings=88 suppressed=40"

func TestGoldenDeltaTrace1k(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1000 traced rounds")
	}
	tree, f, q := fullRoundSetup(t, 1000)
	fc := core.DefaultFilterConfig()
	cfg := DefaultRadioConfig()
	dyn, err := field.NewTemporal("drift", f, 1, 7)
	if err != nil {
		t.Fatal(err)
	}

	run := func(sharded bool) string {
		ds, err := NewDeltaState(tree.Network().Len(), DeltaConfig{})
		if err != nil {
			t.Fatal(err)
		}
		round := func(n int, rec *trace.Recorder) *RoundResult {
			snap := dyn.At(float64(n) * 0.5)
			opt := RoundOptions{Delta: ds, Trace: rec}
			if sharded {
				opt.Engine = gridEngine(tree, 8, 0)
			}
			res, err := RunRound(tree, snap, q, fc, cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		round(1, nil)
		rec := traceRecorderFor(1000)
		res := round(2, rec)
		checkTrace(t, rec, cfg)
		checkLedger(t, res, rec)
		if tx := res.Radio.Ledger[trace.PhaseQuery]; tx != (trace.PhaseTx{}) {
			t.Errorf("timer round put query frames on the air: %+v", tx)
		}
		return goldenDeltaDigest(rec)
	}

	digest := run(false)
	if sharded := run(true); sharded != digest {
		t.Errorf("sharded delta trace diverged:\n sequential: %s\n sharded:    %s", digest, sharded)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden literal pinned on amd64 (FMA contraction may shift floats on %s)", runtime.GOARCH)
	}
	if digest != goldenDeltaTrace1k {
		t.Errorf("golden delta trace digest changed:\n got  %s\n want %s\nIf the protocol or trace schema changed intentionally, update goldenDeltaTrace1k.", digest, goldenDeltaTrace1k)
	}
}
