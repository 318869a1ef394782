package sim

import (
	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/network"
)

// FaultPoint is one cell of the fault-injection sweep grid: a channel
// loss rate with a burstiness shape, plus a fraction of nodes crashing
// mid-round.
type FaultPoint struct {
	Loss  float64 `json:"loss"`
	Burst float64 `json:"burstiness"`
	Crash float64 `json:"crashFraction"`
}

// DefaultFaultPoints is the sweep grid of ext-faults: a fault-free
// control, a loss ramp, two burstiness shapes at fixed loss, a crash
// ramp, and one combined worst case.
func DefaultFaultPoints() []FaultPoint {
	return []FaultPoint{
		{},
		{Loss: 0.1},
		{Loss: 0.2},
		{Loss: 0.4},
		{Loss: 0.2, Burst: 0.5},
		{Loss: 0.2, Burst: 0.8},
		{Crash: 0.05},
		{Crash: 0.15},
		{Loss: 0.2, Burst: 0.5, Crash: 0.1},
	}
}

// SmokeFaultPoints is the single-cell grid the CI smoke step runs: one
// lossy, bursty, crashing round that exercises every fault path at once.
func SmokeFaultPoints() []FaultPoint {
	return []FaultPoint{{Loss: 0.2, Burst: 0.5, Crash: 0.05}}
}

// FaultPointResult is the averaged outcome of one sweep cell, in
// machine-readable form for BENCH_FAULTS.json. Fidelity is measured
// against the same seed's fault-free map — not against ground truth — so
// the numbers isolate what the faults cost, independent of the
// protocol's intrinsic mapping error. Metrics that average to -1 were
// not applicable in any run (e.g. the Hausdorff distance when a level's
// boundary vanished entirely).
type FaultPointResult struct {
	FaultPoint
	// DeliveryRatio is reports delivered under faults over reports
	// delivered fault-free on the same deployment and seed.
	DeliveryRatio float64 `json:"deliveryRatio"`
	// RetriesPerFrame is the mean retransmission count per data frame:
	// the latency/energy price of pushing through the lossy channel.
	RetriesPerFrame float64 `json:"retriesPerFrame"`
	// ReportDrops counts report batches abandoned after exhausting
	// retries or their deadline (each is re-queued once; a drop is not
	// necessarily a loss).
	ReportDrops float64 `json:"reportDrops"`
	// Crashed, Repairs and Severed trace the crash schedule's effect:
	// nodes killed, successful re-parenting events, and nodes left with
	// no alive upward neighbor.
	Crashed float64 `json:"crashedNodes"`
	Repairs float64 `json:"routeRepairs"`
	Severed float64 `json:"severedNodes"`
	// EnergyFactor is total transmitted bytes under faults over the
	// fault-free total: the retry/repair overhead in energy terms.
	EnergyFactor float64 `json:"energyFactor"`
	// Misclassification is 1 - raster agreement between the faulted map
	// and the same seed's fault-free map.
	Misclassification float64 `json:"misclassification"`
	// MeanHausdorff averages the per-isolevel Hausdorff distances
	// between the faulted and fault-free boundary estimates.
	MeanHausdorff float64 `json:"meanHausdorffVsFaultFree"`
}

// faultSweepScenario is the deployment the fault sweep runs on: the
// paper's density-1 packet-level scenario (400 nodes over a 20x20
// field), varied only by seed.
func faultSweepScenario(seed int64) Scenario {
	return Scenario{Nodes: 400, FieldSide: 20, Seed: seed}
}

// faultRadioConfig is the radio of every faulted packet round (the
// fault sweep and RoundSource's faulted rounds): the defaults plus a
// per-frame deadline, so a frame stuck behind a dead parent surfaces as a
// drop in bounded time instead of riding out the full exponential-backoff
// tail.
func faultRadioConfig() desim.RadioConfig {
	cfg := desim.DefaultRadioConfig()
	cfg.FrameDeadline = 1.5
	return cfg
}

// faultPlanConfig materializes a sweep point as a fault plan config for
// one (point, seed) cell. The plan seed folds both coordinates in, so
// every cell draws an independent — and, for a fixed cell, reproducible —
// fault realization. The sink is protected: a dead sink measures nothing.
func faultPlanConfig(p FaultPoint, point int, seed int64, sink network.NodeID) faults.Config {
	kind := faults.ChannelPerfect
	switch {
	case p.Loss > 0 && p.Burst > 0:
		kind = faults.ChannelGilbertElliott
	case p.Loss > 0:
		kind = faults.ChannelBernoulli
	}
	cfg := faults.Config{
		Seed:    seed*1_000_003 + int64(point),
		Channel: kind, LossRate: p.Loss, Burstiness: p.Burst,
		Protect: []network.NodeID{sink},
	}
	if p.Crash > 0 {
		// Crashes land while the round is in full swing: after the query
		// flood has spread but before collection winds down.
		cfg.CrashFraction = p.Crash
		cfg.CrashStart, cfg.CrashEnd = 0.05, 0.6
	}
	return cfg
}

// faultMap reconstructs the sink-side contour map from a round's
// delivered reports. Degenerate inputs (no reports, a single report per
// level) reconstruct to empty or partial maps, never panic.
func faultMap(env *Env, delivered []core.Report) *contour.Map {
	sinkValue := env.Network.Node(env.Tree.Root()).Value
	return contour.Reconstruct(delivered, env.Query.Levels, field.BoundsRect(env.Field),
		sinkValue, contour.Options{Regulate: env.Scenario.Regulate})
}

// faultBaseline is one seed's fault-free reference round, shared by
// every sweep point at that seed.
type faultBaseline struct {
	delivered  int
	txBytes    int64
	raster     *field.Raster
	boundaries [][]geom.Point
}

func (r *Runner) faultBaseline(seed int64) (*faultBaseline, error) {
	env, err := r.Build(faultSweepScenario(seed))
	if err != nil {
		return nil, err
	}
	res, err := desim.RunRound(env.Tree, env.Field, env.Query, *env.Scenario.Filter, faultRadioConfig(), desim.RoundOptions{})
	if err != nil {
		return nil, err
	}
	m := faultMap(env, res.Delivered)
	b := &faultBaseline{
		delivered: len(res.Delivered),
		txBytes:   res.Counters.TotalTxBytes(),
		raster:    env.estRaster(m),
	}
	for i := range env.Scenario.Levels.Values() {
		b.boundaries = append(b.boundaries, m.BoundaryPoints(i, 0.5))
	}
	return b, nil
}

// faultCell runs one (point, seed) cell under its fault plan and scores
// it against the seed's fault-free baseline. The metric vector aligns
// with faultMetricCount and the FaultPointResult fields.
const faultMetricCount = 9

func (r *Runner) faultCell(p FaultPoint, point int, seed int64, base *faultBaseline) ([]float64, error) {
	env, err := r.Build(faultSweepScenario(seed))
	if err != nil {
		return nil, err
	}
	plan, err := faults.New(faultPlanConfig(p, point, seed, env.Tree.Root()), env.Network.Len())
	if err != nil {
		return nil, err
	}
	res, err := desim.RunRound(env.Tree, env.Field, env.Query, *env.Scenario.Filter, faultRadioConfig(), desim.RoundOptions{Faults: plan})
	if err != nil {
		return nil, err
	}
	m := faultMap(env, res.Delivered)

	delivery := -1.0
	if base.delivered > 0 {
		delivery = float64(len(res.Delivered)) / float64(base.delivered)
	}
	retries := float64(res.Radio.Retries) / float64(max(res.Radio.DataSent, 1))
	energy := float64(res.Counters.TotalTxBytes()) / float64(max(base.txBytes, 1))
	misclass := 1 - field.Agreement(base.raster, env.estRaster(m))
	var hSum float64
	hCount := 0
	for i := range env.Scenario.Levels.Values() {
		basePts := base.boundaries[i]
		estPts := m.BoundaryPoints(i, 0.5)
		if len(basePts) == 0 || len(estPts) == 0 {
			continue
		}
		if h := geom.HausdorffDistance(basePts, estPts); h >= 0 {
			hSum += h
			hCount++
		}
	}
	hausdorff := -1.0
	if hCount > 0 {
		hausdorff = hSum / float64(hCount)
	}
	return []float64{
		delivery,
		retries,
		float64(res.ReportDrops),
		float64(res.Crashed),
		float64(res.Repairs),
		float64(res.Severed),
		energy,
		misclass,
		hausdorff,
	}, nil
}

// ExtFaultSweepResults runs the fault-injection sweep over the given
// grid, averaging each point over runs seeds, and returns the
// machine-readable results. Baseline (fault-free) rounds are computed
// once per seed and shared across every point; all (point, seed) cells
// then fan out over the runner's pool, so the output is byte-identical
// at any -parallel width.
func ExtFaultSweepResults(runs int, points []FaultPoint) ([]FaultPointResult, error) {
	return defaultRunner().ExtFaultSweepResults(runs, points)
}

// ExtFaultSweepResults is the Runner form of the package-level function.
func (r *Runner) ExtFaultSweepResults(runs int, points []FaultPoint) ([]FaultPointResult, error) {
	if runs < 1 {
		runs = 1
	}
	bases, err := runJobs(r, runs, func(i int) (*faultBaseline, error) {
		return r.faultBaseline(int64(i) + 1)
	})
	if err != nil {
		return nil, err
	}
	avgs, err := sweepAverage(r, len(points), runs, func(point int, seed int64) ([]float64, error) {
		return r.faultCell(points[point], point, seed, bases[seed-1])
	})
	if err != nil {
		return nil, err
	}
	out := make([]FaultPointResult, len(points))
	for i, v := range avgs {
		if len(v) != faultMetricCount {
			continue // point failed in every run; keep zero metrics
		}
		out[i] = FaultPointResult{
			FaultPoint:        points[i],
			DeliveryRatio:     v[0],
			RetriesPerFrame:   v[1],
			ReportDrops:       v[2],
			Crashed:           v[3],
			Repairs:           v[4],
			Severed:           v[5],
			EnergyFactor:      v[6],
			Misclassification: v[7],
			MeanHausdorff:     v[8],
		}
	}
	return out, nil
}

// ExtFaultSweep runs Iso-Map's packet-level round under injected faults —
// lossy and bursty channels, mid-round node crashes with route repair —
// and reports delivery, overhead and map fidelity relative to the
// fault-free round on the same deployments.
func ExtFaultSweep(runs int) (*Table, error) { return defaultRunner().ExtFaultSweep(runs) }

// ExtFaultSweep is the Runner form of the package-level function.
func (r *Runner) ExtFaultSweep(runs int) (*Table, error) {
	results, err := r.ExtFaultSweepResults(runs, DefaultFaultPoints())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-faults",
		Title: "Fault injection: delivery, overhead and map fidelity vs fault-free (Iso-Map, packet level)",
		Columns: []string{
			"loss", "burst", "crash", "delivery", "retries/frame", "drops",
			"crashed", "repairs", "severed", "energy x", "misclass", "hausdorff",
		},
	}
	for _, res := range results {
		t.AddRow(res.Loss, res.Burst, res.Crash, res.DeliveryRatio,
			res.RetriesPerFrame, res.ReportDrops, res.Crashed, res.Repairs,
			res.Severed, res.EnergyFactor, res.Misclassification, res.MeanHausdorff)
	}
	return t, nil
}
