// Package sim is the experiment harness of the reproduction: it
// materializes deployment scenarios, runs every protocol (Iso-Map and the
// four baselines) over them, and regenerates each table and figure of the
// paper's evaluation (Sec. 5) as a printable series.
//
// Sweeps execute on a Runner: a bounded worker pool that fans the
// independent (scenario, seed) cells of each figure out in parallel and
// aggregates results in deterministic order, backed by a deployment cache
// and a ground-truth memo so identical scenarios are materialized once.
// The Runner is the only way in: every experiment is one entry of
// Experiments, and Runner.Build materializes single scenarios.
package sim

import (
	"fmt"
	"math"

	"isomap/internal/baseline/escan"
	"isomap/internal/baseline/inlr"
	"isomap/internal/baseline/suppress"
	"isomap/internal/baseline/tinydb"
	"isomap/internal/contour"
	"isomap/internal/core"
	"isomap/internal/energy"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/metrics"
	"isomap/internal/network"
	"isomap/internal/routing"
)

// RasterRes is the resolution of the accuracy rasters (per side).
const RasterRes = 100

// truthIsolineRes is the marching-squares resolution (per side) of the
// ground-truth isolines the Hausdorff metrics sample.
const truthIsolineRes = 150

// Scenario describes one simulated deployment and query.
type Scenario struct {
	// Nodes is the deployed node count.
	Nodes int
	// FieldSide is the field edge length in normalized units (the paper's
	// reference field is 50, i.e. 400 m x 400 m).
	FieldSide float64
	// Radio is the radio range; zero selects the connectivity default
	// 1.5/sqrt(density), the paper's "no less than 1.5 at density 1". The
	// density is Nodes over the true field area (which differs from
	// FieldSide^2 for rectangular traces).
	Radio float64
	// Grid selects grid deployment instead of uniform random.
	Grid bool
	// Seed drives deployment and failure randomness.
	Seed int64
	// FailFraction kills this fraction of nodes before the round.
	FailFraction float64
	// Levels is the queried isolevel scheme; zero value selects the
	// default {6, 8, 10, 12} of the evaluation.
	Levels field.Levels
	// Epsilon is the border tolerance; zero selects 0.05*Step unless
	// EpsilonSet is true.
	Epsilon float64
	// EpsilonSet marks Epsilon as explicit, so an intentional zero is
	// honored (and rejected by query validation) instead of silently
	// selecting the default — mirroring Regulate/RegulateSet.
	EpsilonSet bool
	// Filter is Iso-Map's in-network filter configuration; the zero value
	// selects the paper's default (s_a = 30 degrees, s_d = 4). An explicit
	// &core.FilterConfig{Enabled: false} disables filtering.
	Filter *core.FilterConfig
	// Regulate disables the sink regulation rules when false and a
	// RegulateSet is true.
	Regulate    bool
	RegulateSet bool
	// Trace overrides the synthetic seabed with an externally supplied
	// field (e.g. a depth trace loaded with field.ParseGrid). FieldSide
	// is then derived from the trace's x extent, while density-derived
	// defaults use the trace's true bounds area.
	Trace field.Field
}

// withDefaults fills the zero-valued scenario fields.
func (s Scenario) withDefaults() Scenario {
	if s.Nodes == 0 {
		s.Nodes = 2500
	}
	area := 0.0
	if s.Trace != nil {
		x0, y0, x1, y1 := s.Trace.Bounds()
		s.FieldSide = x1 - x0
		// Rectangular traces have area != FieldSide^2; density-derived
		// defaults must use the true extent.
		area = (x1 - x0) * (y1 - y0)
	}
	if s.FieldSide == 0 {
		s.FieldSide = 50
	}
	if area == 0 {
		area = s.FieldSide * s.FieldSide
	}
	if s.Radio == 0 {
		density := float64(s.Nodes) / area
		s.Radio = 1.5 / math.Sqrt(density)
	}
	if s.Levels == (field.Levels{}) {
		s.Levels = field.Levels{Low: 6, High: 12, Step: 2}
	}
	if s.Epsilon == 0 && !s.EpsilonSet {
		s.Epsilon = core.DefaultEpsilonFraction * s.Levels.Step
	}
	if s.Filter == nil {
		fc := core.DefaultFilterConfig()
		s.Filter = &fc
	}
	if !s.RegulateSet {
		s.Regulate = true
	}
	return s
}

// Env is a materialized scenario: the field surface, the deployed network
// and the routing tree.
//
// Reuse contract: an Env may be reused across protocol runs in any order —
// every Run* method re-senses the field into the network before running,
// and nothing a protocol round does survives it except node values, so
// run results are independent of what ran before on the same Env.
// Protocol runs on the SAME Env must not overlap in time (they share the
// network's node values); for concurrent rounds, build one Env per
// goroutine — Runner.Build hands out isolated clones of one cached
// deployment for exactly this purpose.
type Env struct {
	Scenario Scenario
	Field    field.Field
	Network  *network.Network
	Tree     *routing.Tree
	Query    core.Query

	// memo, when set, caches ground-truth rasters and isoline samplings
	// shared with every other Env holding the same field instance.
	memo *field.Memo

	// rasterWorkers bounds the estimated-map rasterizer's worker pool. A
	// Runner with a multi-worker pool sets it to 1: the sweep jobs already
	// saturate the cores, so nested raster parallelism would only add
	// scheduling overhead. 0 lets the raster pick GOMAXPROCS. The raster
	// output is byte-identical at any width.
	rasterWorkers int
}

// seabedConfigFor returns the synthetic-surface config of a defaulted
// scenario: the reference seabed scaled geometrically with the field side
// so larger deployments see a similar contour structure (constant region
// count, Theorem 4.1's assumption).
func seabedConfigFor(s Scenario) field.SeabedConfig {
	cfg := field.DefaultSeabedConfig()
	scale := s.FieldSide / cfg.Width
	cfg.Width, cfg.Height = s.FieldSide, s.FieldSide
	cfg.SigmaMin *= scale
	cfg.SigmaMax *= scale
	return cfg
}

// deploy materializes the network and routing tree of a defaulted
// scenario over the field.
func deploy(s Scenario, f field.Field) (*network.Network, *routing.Tree, error) {
	var (
		nw  *network.Network
		err error
	)
	if s.Grid {
		nw, err = network.DeployGrid(s.Nodes, f, s.Radio)
	} else {
		nw, err = network.DeployUniform(s.Nodes, f, s.Radio, s.Seed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sim: deploy: %w", err)
	}
	if s.FailFraction > 0 {
		nw.FailFraction(s.FailFraction, s.Seed+1)
	}
	sink, err := nw.NearestNode(nw.Bounds().Centroid())
	if err != nil {
		return nil, nil, fmt.Errorf("sim: sink: %w", err)
	}
	tree, err := routing.NewTree(nw, sink)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: tree: %w", err)
	}
	return nw, tree, nil
}

// buildEnv materializes a defaulted scenario directly (no deployment
// cache) over the given field.
func buildEnv(s Scenario, f field.Field, memo *field.Memo) (*Env, error) {
	nw, tree, err := deploy(s, f)
	if err != nil {
		return nil, err
	}
	q, err := core.NewQueryEpsilon(s.Levels, s.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("sim: query: %w", err)
	}
	return &Env{Scenario: s, Field: f, Network: nw, Tree: tree, Query: q, memo: memo}, nil
}

// Stats summarizes one protocol round in the units the paper plots.
type Stats struct {
	Protocol  string  `json:"protocol"`
	Nodes     int     `json:"nodes"`
	Diameter  int     `json:"diameterHops"`
	AvgDegree float64 `json:"avgDegree"`
	// Generated and SinkReports count data reports.
	Generated   int64 `json:"generatedReports"`
	SinkReports int64 `json:"sinkReports"`
	// TrafficKB is total transmitted bytes / 1024 (Fig. 14).
	TrafficKB float64 `json:"trafficKB"`
	// MeanOps is the per-node computational intensity (Fig. 15).
	MeanOps float64 `json:"meanOpsPerNode"`
	// MeanEnergyJ is the per-node energy in joules (Fig. 16).
	MeanEnergyJ float64 `json:"meanEnergyJoules"`
	// Accuracy is the mapping accuracy against ground truth, or -1 when
	// the protocol does not reconstruct a map (Fig. 11).
	Accuracy float64 `json:"accuracy"`
	// MeanHausdorff averages the per-isolevel Hausdorff distances between
	// estimated and true isolines, or -1 when unavailable (Fig. 12).
	MeanHausdorff float64 `json:"meanHausdorff"`
}

func (e *Env) baseStats(name string, c *metrics.Counters) Stats {
	return Stats{
		Protocol:      name,
		Nodes:         e.Network.Len(),
		Diameter:      e.Tree.MaxLevel(),
		AvgDegree:     e.Network.AverageDegree(),
		Generated:     c.GeneratedReports,
		SinkReports:   c.SinkReports,
		TrafficKB:     c.TrafficKB(),
		MeanOps:       c.MeanOpsPerNode(),
		MeanEnergyJ:   energy.MeanNodeJoules(c),
		Accuracy:      -1,
		MeanHausdorff: -1,
	}
}

// estRaster rasterizes an estimated contour map at the accuracy
// resolution on the Env's raster worker budget (see rasterWorkers).
func (e *Env) estRaster(m *contour.Map) *field.Raster {
	return m.RasterWorkers(RasterRes, RasterRes, e.rasterWorkers)
}

// truthRaster rasterizes the ground-truth contour map of the scenario,
// through the runner's truth memo when available. The result is shared:
// callers must not modify it.
func (e *Env) truthRaster() *field.Raster {
	return e.memo.ClassifyRaster(e.Field, e.Scenario.Levels, RasterRes, RasterRes)
}

// truthIsoline samples the ground-truth isoline at the given level,
// through the runner's truth memo when available. The result is shared:
// callers must not modify it.
func (e *Env) truthIsoline(level float64) []geom.Point {
	return e.memo.IsolinePoints(e.Field, level, truthIsolineRes, truthIsolineRes, 0.5)
}

// RunIsoMap executes one Iso-Map round and reconstructs the map.
func (e *Env) RunIsoMap() (Stats, *contour.Map, error) {
	res, err := core.Run(e.Tree, e.Field, e.Query, *e.Scenario.Filter)
	if err != nil {
		return Stats{}, nil, err
	}
	opts := contour.Options{Regulate: e.Scenario.Regulate}
	m := contour.Reconstruct(res.Reports, e.Query.Levels, field.BoundsRect(e.Field), res.SinkValue, opts)
	st := e.baseStats("Iso-Map", res.Counters)
	st.Accuracy = field.Agreement(e.truthRaster(), e.estRaster(m))
	st.MeanHausdorff = e.isoMapHausdorff(m)
	return st, m, nil
}

func (e *Env) isoMapHausdorff(m *contour.Map) float64 {
	var sum float64
	count := 0
	for i, lv := range e.Scenario.Levels.Values() {
		truth := e.truthIsoline(lv)
		est := m.BoundaryPoints(i, 0.5)
		if len(truth) == 0 || len(est) == 0 {
			continue
		}
		if h := geom.HausdorffDistance(truth, est); h >= 0 {
			sum += h
			count++
		}
	}
	if count == 0 {
		return -1
	}
	return sum / float64(count)
}

// RunTinyDB executes one TinyDB round (requires a grid scenario).
func (e *Env) RunTinyDB() (Stats, *tinydb.Result, error) {
	res, err := tinydb.Run(e.Tree, e.Field)
	if err != nil {
		return Stats{}, nil, err
	}
	st := e.baseStats("TinyDB", res.Counters)
	st.Accuracy = field.Agreement(e.truthRaster(), res.Raster(e.Scenario.Levels, RasterRes, RasterRes))
	st.MeanHausdorff = e.tinyDBHausdorff(res)
	return st, res, nil
}

func (e *Env) tinyDBHausdorff(res *tinydb.Result) float64 {
	var sum float64
	count := 0
	for _, lv := range e.Scenario.Levels.Values() {
		truth := e.truthIsoline(lv)
		est := res.IsolinePoints(lv, 0.5)
		if len(truth) == 0 || len(est) == 0 {
			continue
		}
		if h := geom.HausdorffDistance(truth, est); h >= 0 {
			sum += h
			count++
		}
	}
	if count == 0 {
		return -1
	}
	return sum / float64(count)
}

// nodeSpacing returns the mean node spacing of the scenario, derived from
// the true field area so rectangular traces get the right spacing.
func (e *Env) nodeSpacing() float64 {
	x0, y0, x1, y1 := e.Field.Bounds()
	return math.Sqrt((x1 - x0) * (y1 - y0) / float64(e.Scenario.Nodes))
}

// RunINLR executes one INLR round.
func (e *Env) RunINLR() (Stats, error) {
	res, err := inlr.Run(e.Tree, e.Field, inlr.DefaultConfig(e.Scenario.Levels.Step, e.nodeSpacing()))
	if err != nil {
		return Stats{}, err
	}
	return e.baseStats("INLR", res.Counters), nil
}

// RunEScan executes one eScan round.
func (e *Env) RunEScan() (Stats, error) {
	res, err := escan.Run(e.Tree, e.Field, escan.DefaultConfig(e.Scenario.Levels.Step, e.nodeSpacing()))
	if err != nil {
		return Stats{}, err
	}
	return e.baseStats("eScan", res.Counters), nil
}

// RunSuppress executes one data-suppression round.
func (e *Env) RunSuppress() (Stats, error) {
	res, err := suppress.Run(e.Tree, e.Field, suppress.DefaultConfig(e.Scenario.Levels.Step))
	if err != nil {
		return Stats{}, err
	}
	return e.baseStats("Suppression", res.Counters), nil
}
