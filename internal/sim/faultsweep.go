package sim

import (
	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/desim"
	"isomap/internal/faults"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/network"
	"isomap/internal/stats"
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
	// and the same seed's fault-free map; MisclassificationHalfWidth is
	// the half-width of its 95% Student-t interval over the seeds (-1
	// with a single seed).
	Misclassification          float64 `json:"misclassification"`
	MisclassificationHalfWidth float64 `json:"misclassificationHalfWidth95"`
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

// faultRadioConfig is the radio of every faulted packet round: the
// defaults plus a per-frame deadline, so a frame stuck behind a dead
// parent surfaces as a drop in bounded time instead of riding out the
// full exponential-backoff tail.
func faultRadioConfig() desim.RadioConfig {
	cfg := desim.DefaultRadioConfig()
	cfg.FrameDeadline = 1.5
	return cfg
}

// FaultPlan builds the fault plan and radio of one faulted packet round on
// env, drawing every fault from seed: a Bernoulli channel losing p.Loss
// (Gilbert–Elliott with burstiness p.Burst when that is set too), and
// p.Crash of the nodes crashing while the round is in full swing, after
// the query flood has spread but before collection winds down. The sink
// is protected: a dead sink measures nothing. The fault sweep, the
// faulted rounds of RoundSource and isomapsim's -loss/-burst/-crashfrac
// round all build their plans here.
func FaultPlan(env *Env, p FaultPoint, seed int64) (*faults.Plan, desim.RadioConfig, error) {
	kind := faults.ChannelPerfect
	switch {
	case p.Loss > 0 && p.Burst > 0:
		kind = faults.ChannelGilbertElliott
	case p.Loss > 0:
		kind = faults.ChannelBernoulli
	}
	plan, err := faults.New(faults.Config{
		Seed:          seed,
		Channel:       kind,
		LossRate:      p.Loss,
		Burstiness:    p.Burst,
		CrashFraction: p.Crash,
		CrashStart:    0.05,
		CrashEnd:      0.6,
		Protect:       []network.NodeID{env.Tree.Root()},
	}, env.Network.Len())
	if err != nil {
		return nil, desim.RadioConfig{}, err
	}
	return plan, faultRadioConfig(), nil
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
// with the FaultPointResult fields.
func (r *Runner) faultCell(p FaultPoint, point int, seed int64, base *faultBaseline) ([]float64, error) {
	env, err := r.Build(faultSweepScenario(seed))
	if err != nil {
		return nil, err
	}
	// The plan seed folds both cell coordinates in, so every cell draws an
	// independent — and, for a fixed cell, reproducible — realization.
	plan, cfg, err := FaultPlan(env, p, seed*1_000_003+int64(point))
	if err != nil {
		return nil, err
	}
	res, err := desim.RunRound(env.Tree, env.Field, env.Query, *env.Scenario.Filter, cfg, desim.RoundOptions{Faults: plan})
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
	cells, err := runJobs(r, len(points)*runs, func(i int) ([]float64, error) {
		point, seed := i/runs, int64(i%runs)+1
		return r.faultCell(points[point], point, seed, bases[seed-1])
	})
	if err != nil {
		return nil, err
	}
	out := make([]FaultPointResult, len(points))
	misclass := make([]float64, runs)
	for i := range out {
		seeds := cells[i*runs : (i+1)*runs]
		v := averageVecs(seeds)
		for j, c := range seeds {
			misclass[j] = c[7]
		}
		half := -1.0
		if _, h, ok := stats.MeanCI95(misclass); ok {
			half = h
		}
		out[i] = FaultPointResult{
			FaultPoint:                 points[i],
			DeliveryRatio:              v[0],
			RetriesPerFrame:            v[1],
			ReportDrops:                v[2],
			Crashed:                    v[3],
			Repairs:                    v[4],
			Severed:                    v[5],
			EnergyFactor:               v[6],
			Misclassification:          v[7],
			MisclassificationHalfWidth: half,
			MeanHausdorff:              v[8],
		}
	}
	return out, nil
}

// extFaultSweep runs Iso-Map's packet-level round under injected faults —
// lossy and bursty channels, mid-round node crashes with route repair —
// and reports delivery, overhead and map fidelity relative to the
// fault-free round on the same deployments.
func (r *Runner) extFaultSweep(runs int) (*Table, error) {
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
