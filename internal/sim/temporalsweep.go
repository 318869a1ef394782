package sim

import (
	"fmt"

	"isomap/internal/field"
)

// TemporalPoint is one cell of the temporal-monitoring sweep grid: a
// seeded evolving field (see field.NewTemporal), its evolution speed,
// and the reporting protocol tracking it — full-report packet rounds, or
// the delta protocol with a given sink-side expiry.
type TemporalPoint struct {
	Field string  `json:"field"`
	Speed float64 `json:"speed"`
	Delta bool    `json:"delta"`
	// Expiry is the delta sink's staleness bound in rounds (0 disables
	// aging); ignored for full-report cells.
	Expiry int `json:"expiryRounds,omitempty"`
}

// TemporalRounds is the monitoring horizon of every sweep cell: long
// enough for the delta protocol's suppression to dominate its first-round
// full cost, short enough to keep the grid cheap.
const TemporalRounds = 10

// DefaultTemporalPoints is the sweep grid of ext-temporal: a field-speed
// ramp on the drifting-bumps field with full-report and delta cells
// paired at each speed (the traffic-vs-staleness-vs-speed curves), an
// unaged delta cell, and one cell each on the advected-front and
// step-event fields.
func DefaultTemporalPoints() []TemporalPoint {
	return []TemporalPoint{
		{Field: "drift", Speed: 0.2},
		{Field: "drift", Speed: 0.2, Delta: true, Expiry: 8},
		{Field: "drift", Speed: 0.5},
		{Field: "drift", Speed: 0.5, Delta: true, Expiry: 8},
		{Field: "drift", Speed: 1.0},
		{Field: "drift", Speed: 1.0, Delta: true, Expiry: 8},
		{Field: "drift", Speed: 0.5, Delta: true},
		{Field: "front", Speed: 0.5},
		{Field: "front", Speed: 0.5, Delta: true, Expiry: 8},
		{Field: "step", Speed: 0.5, Delta: true, Expiry: 6},
	}
}

// SmokeTemporalPoints is the single-cell grid the CI smoke step runs:
// one aged delta cell on the drifting field.
func SmokeTemporalPoints() []TemporalPoint {
	return []TemporalPoint{{Field: "drift", Speed: 0.5, Delta: true, Expiry: 4}}
}

// TemporalPointResult is the averaged outcome of one sweep cell, in
// machine-readable form for BENCH_TEMPORAL.json. Per-round metrics
// average over the cell's TemporalRounds monitoring horizon first, then
// over seeds. Metrics averaging to -1 were not applicable in any run
// (staleness and suppression outside delta mode).
type TemporalPointResult struct {
	TemporalPoint
	// DataFramesPerRound is the mean number of data frames first-sent per
	// round — the traffic axis the delta protocol is built to shrink.
	DataFramesPerRound float64 `json:"dataFramesPerRound"`
	// TxBytesPerRound is the mean physical bytes transmitted per round
	// (retries and acks included).
	TxBytesPerRound float64 `json:"txBytesPerRound"`
	// TrackingError is the mean over rounds of 1 - raster agreement
	// between the sink's reconstructed map and the evolving field's
	// ground truth at that round's time.
	TrackingError float64 `json:"trackingError"`
	// MeanStaleness is the sink belief's mean entry age in rounds,
	// averaged over rounds (delta cells only).
	MeanStaleness float64 `json:"meanStalenessRounds"`
	// MapReports is the mean report count feeding reconstruction: the
	// delivered batch in full mode, the aged belief in delta mode.
	MapReports float64 `json:"mapReports"`
	// SuppressRatio is the fraction of locally refreshed isoline
	// observations the delta protocol withheld as unchanged (delta cells
	// only).
	SuppressRatio float64 `json:"suppressRatio"`
}

// temporalMetricCount aligns the cell metric vector with the
// TemporalPointResult fields.
const temporalMetricCount = 6

// temporalCell monitors one (point, seed) deployment for TemporalRounds
// rounds and scores traffic against tracking accuracy. Each round's
// truth is the evolving field's own classification at the round's time —
// tracking error, unlike the static sweeps' accuracy, charges staleness
// as well as mapping error.
func (r *Runner) temporalCell(p TemporalPoint, seed int64) ([]float64, error) {
	env, err := r.Build(faultSweepScenario(seed))
	if err != nil {
		return nil, err
	}
	dyn, err := field.NewTemporal(p.Field, env.Field, p.Speed, seed)
	if err != nil {
		return nil, fmt.Errorf("sim: temporal cell %q: %w", p.Field, err)
	}
	rs := &RoundSource{
		Env: env, Dyn: dyn,
		Delta: p.Delta, DeltaExpiry: p.Expiry,
		PacketRounds: !p.Delta,
	}
	var frames, txBytes, trackErr, stale, mapReports float64
	var crossings, suppressed int
	for round := 0; round < TemporalRounds; round++ {
		rd, err := rs.Next()
		if err != nil {
			return nil, err
		}
		truth := field.ClassifyRaster(dyn.At(rd.T), env.Scenario.Levels, RasterRes, RasterRes)
		est := env.estRaster(faultMap(env, rd.Reports))
		trackErr += 1 - field.Agreement(truth, est)
		frames += float64(rd.DataFrames)
		txBytes += float64(rd.TxBytes)
		mapReports += float64(len(rd.Reports))
		if rd.Delta != nil {
			stale += rd.Delta.MeanAgeRounds
			crossings += rd.Delta.Crossings
			suppressed += rd.Delta.Suppressed
		}
	}
	n := float64(TemporalRounds)
	staleness, suppressRatio := -1.0, -1.0
	if p.Delta {
		staleness = stale / n
		if total := crossings + suppressed; total > 0 {
			suppressRatio = float64(suppressed) / float64(total)
		}
	}
	return []float64{
		frames / n,
		txBytes / n,
		trackErr / n,
		staleness,
		mapReports / n,
		suppressRatio,
	}, nil
}

// ExtTemporalSweepResults runs the temporal-monitoring sweep over the
// given grid, averaging each point over runs seeds, and returns the
// machine-readable results. All (point, seed) cells fan out over the
// runner's pool, so the output is byte-identical at any -parallel width.
func (r *Runner) ExtTemporalSweepResults(runs int, points []TemporalPoint) ([]TemporalPointResult, error) {
	if runs < 1 {
		runs = 1
	}
	avgs, err := sweepAverage(r, len(points), runs, func(point int, seed int64) ([]float64, error) {
		return r.temporalCell(points[point], seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([]TemporalPointResult, len(points))
	for i, v := range avgs {
		if len(v) != temporalMetricCount {
			continue // point failed in every run; keep zero metrics
		}
		out[i] = TemporalPointResult{
			TemporalPoint:      points[i],
			DataFramesPerRound: v[0],
			TxBytesPerRound:    v[1],
			TrackingError:      v[2],
			MeanStaleness:      v[3],
			MapReports:         v[4],
			SuppressRatio:      v[5],
		}
	}
	return out, nil
}

// extTemporalSweep tracks seeded evolving fields through multi-round
// monitoring — full-report packet rounds against the delta-report
// protocol — and reports per-round traffic, tracking error against the
// moving ground truth, and sink-side staleness across field speeds.
func (r *Runner) extTemporalSweep(runs int) (*Table, error) {
	results, err := r.ExtTemporalSweepResults(runs, DefaultTemporalPoints())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-temporal",
		Title: "Temporal monitoring: traffic vs tracking error vs field speed (full-report vs delta, packet level)",
		Columns: []string{
			"field", "speed", "mode", "expiry", "frames/round", "txB/round",
			"trackErr", "staleness", "map reports", "suppress",
		},
	}
	for _, res := range results {
		mode := "full"
		if res.Delta {
			mode = "delta"
		}
		t.AddRow(res.Field, res.Speed, mode, res.Expiry,
			res.DataFramesPerRound, res.TxBytesPerRound, res.TrackingError,
			res.MeanStaleness, res.MapReports, res.SuppressRatio)
	}
	return t, nil
}
