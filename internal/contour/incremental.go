package contour

import (
	"fmt"
	"reflect"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
)

// IncrementalStats counts the work the engine did; all fields are
// cumulative across Updates.
type IncrementalStats struct {
	// Updates is the number of rounds ingested.
	Updates int
	// Deprecated: LevelsReused is no longer written; every Update builds
	// each level from its reports alone. It remains only for the
	// benchmark harness, which still reads it.
	LevelsReused int
	// LevelsRebuilt counts per-level builds: every isolevel of every
	// Update.
	LevelsRebuilt int
	// Deprecated: CellsReused is no longer written, for the same reason
	// as LevelsReused.
	CellsReused int
	// CellsRecomputed counts the Voronoi cells built: every report of
	// every level of every Update.
	CellsRecomputed int
	// Deprecated: the raster counters are no longer written; every
	// raster is a full Map.RasterWorkers sweep. They remain only for
	// the benchmark harness, which still reads them.
	RasterCellsCopied       int
	RasterCellsReclassified int
	RasterFullRebuilds      int
}

// Incremental is the multi-round engine the benchmark harness (the
// separate perfbench module) still drives as its shadow; nothing else
// calls it. It is kept only until that harness calls ReconstructWorkers,
// like desim's RunFullRound* wrappers. Every Update is
// ReconstructWorkers over that round's reports at the Options.Workers
// width: it keeps no state that shapes the next round.
//
// The contract: Update(reports, sinkValue) returns a Map equal (bit for
// bit — DeepEqual, including every region float) to
// Reconstruct(reports, levels, bounds, sinkValue, opts), whatever rounds
// came before. Arranged returns the last round's in-range reports grouped
// by level in arrival order, the exact order Reconstruct builds from.
// Rasters are always the map's full certified sweep (Map.RasterWorkers),
// so equal maps give equal rasters. The incremental_test.go property
// tests pin both.
//
// It is not safe for concurrent use; serialize Update/Raster calls. Maps
// it has returned remain valid and read-only forever.
type Incremental struct {
	levels field.Levels
	bounds geom.Polygon
	opts   Options
	values []float64

	cur *Map
	// byLevel holds the last Update's in-range reports, bucketed by
	// level in arrival order.
	byLevel [][]core.Report

	stats IncrementalStats
}

// NewIncremental creates an engine for one deployment's query. opts must
// stay fixed for the engine's lifetime (they parameterize every oracle
// comparison).
func NewIncremental(levels field.Levels, bounds geom.Polygon, opts Options) *Incremental {
	return &Incremental{
		levels: levels,
		bounds: bounds.EnsureCCW(),
		opts:   opts,
		values: levels.Values(),
	}
}

// Map returns the current map (nil before the first Update).
func (inc *Incremental) Map() *Map { return inc.cur }

// Stats returns the cumulative work counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Arranged returns the last Update's in-range reports grouped by level in
// arrival order, concatenated level by level: the input Reconstruct
// builds the current map from. Feeding it to any engine's Update
// reproduces this engine's map and raster exactly.
func (inc *Incremental) Arranged() []core.Report {
	var out []core.Report
	for _, lvl := range inc.byLevel {
		out = append(out, lvl...)
	}
	return out
}

// Update ingests one round of reports and returns the new current map:
// ReconstructWorkers' map of the same reports at width Options.Workers.
func (inc *Incremental) Update(reports []core.Report, sinkValue float64) *Map {
	inc.byLevel = groupByLevel(reports, len(inc.values))
	m := buildMap(inc.byLevel, inc.levels, inc.bounds, sinkValue, inc.opts, poolWidth(inc.opts, inc.opts.Workers))
	for _, lvl := range inc.byLevel {
		inc.stats.CellsRecomputed += len(lvl)
	}
	inc.stats.LevelsRebuilt += len(inc.values)
	inc.stats.Updates++
	inc.cur = m
	return m
}

// Raster returns the rows x cols classification raster of the current
// map: its full sweep, Map().RasterWorkers(rows, cols, Options.Workers),
// or an empty raster before the first Update.
func (inc *Incremental) Raster(rows, cols int) *field.Raster {
	if inc.cur == nil {
		return field.NewRaster(max(rows, 0), max(cols, 0))
	}
	return inc.cur.RasterWorkers(rows, cols, inc.opts.Workers)
}

// Equivalent reports whether two maps are byte-identical: every exported
// and retained internal field equal via DeepEqual, plus equal rows x cols
// raster bytes. It is the check the serving daemon's -oracle mode runs
// before every publish, and the property tests after every build; the
// error names the first divergence found.
func Equivalent(a, b *Map, rows, cols int) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("contour: one map is nil (a=%v b=%v)", a == nil, b == nil)
	}
	if a == nil {
		return nil
	}
	if len(a.levels) != len(b.levels) {
		return fmt.Errorf("contour: level count %d vs %d", len(a.levels), len(b.levels))
	}
	for i := range a.levels {
		if !reflect.DeepEqual(a.levels[i], b.levels[i]) {
			return fmt.Errorf("contour: level %d reconstruction state diverges", i)
		}
	}
	if !reflect.DeepEqual(a.Levels, b.Levels) || !reflect.DeepEqual(a.Bounds, b.Bounds) {
		return fmt.Errorf("contour: map levels/bounds diverge")
	}
	if rows > 0 && cols > 0 {
		return EquivalentRaster(a.RasterWorkers(rows, cols, 1), b.RasterWorkers(rows, cols, 1))
	}
	return nil
}

// EquivalentRaster reports whether ra equals rb cell for cell.
func EquivalentRaster(ra, rb *field.Raster) error {
	if ra.Rows != rb.Rows || ra.Cols != rb.Cols {
		return fmt.Errorf("contour: raster dims %dx%d vs %dx%d", ra.Rows, ra.Cols, rb.Rows, rb.Cols)
	}
	for r := range ra.Cells {
		for c := range ra.Cells[r] {
			if ra.Cells[r][c] != rb.Cells[r][c] {
				return fmt.Errorf("contour: raster cell (%d,%d) = %d vs %d", r, c, ra.Cells[r][c], rb.Cells[r][c])
			}
		}
	}
	return nil
}
