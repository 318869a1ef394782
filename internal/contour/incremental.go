// Incremental reconstruction: the sink of a continuously monitored
// deployment receives a report round every few seconds, but successive
// rounds share most of their reports — isopositions are node positions,
// and only nodes near a moving isoline change their mind. Incremental
// keeps the previous round's per-level state (Voronoi diagram, base
// chords) and recomputes only the cells a changed report can have
// touched, with the full Reconstruct as its byte-identical oracle.
//
// The contract: Update(reports, sinkValue) returns a Map equal (bit for
// bit — DeepEqual, including every region float) to
// Reconstruct(Arranged(), levels, bounds, sinkValue, opts), where
// Arranged is the deterministic per-level permutation of the input
// reports the engine maintains to keep report slots stable across rounds.
// Rasters are always the map's full certified sweep (Map.RasterWorkers),
// so equal maps give equal rasters. The incremental_test.go property
// tests pin both.
package contour

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/trace"
)

// IncrementalStats counts the work the engine did and saved; all fields
// are cumulative across Updates.
type IncrementalStats struct {
	// Updates is the number of rounds ingested.
	Updates int
	// LevelsReused counts isolevels reused wholesale (empty diff).
	LevelsReused int
	// LevelsRebuilt counts full per-level builds (first round, empty
	// transitions).
	LevelsRebuilt int
	// CellsReused / CellsRecomputed split the Voronoi cells of
	// incrementally rebuilt levels.
	CellsReused     int
	CellsRecomputed int
	// Deprecated: the raster counters are no longer written; every
	// raster is a full Map.RasterWorkers sweep. They remain only for
	// the benchmark harness, which still reads them.
	RasterCellsCopied       int
	RasterCellsReclassified int
	RasterFullRebuilds      int
}

// Incremental is the multi-round reconstruction engine. It is not safe
// for concurrent use; serialize Update/Raster calls (the serving daemon
// takes a per-deployment lock) — Maps it has returned remain valid and
// read-only forever.
type Incremental struct {
	levels field.Levels
	bounds geom.Polygon
	opts   Options
	values []float64

	cur      *Map
	arranged [][]core.Report

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

// Arranged returns the current round's reports in the engine's slot
// order: the exact input Reconstruct must be given to reproduce the
// engine's map byte for byte. It is a permutation of the last Update's
// (in-range) reports, concatenated level by level.
//
// Feeding Arranged() to a fresh engine's first Update (a whole rebuild)
// reproduces this engine's map and raster exactly, and the fresh engine
// then continues identically: arrangement buckets reports by level in
// arrival order, so it adopts the identical slot assignment. The serving
// layer recovers a quarantined or restarted deployment this way, from
// the incoming round or a checkpoint's retained arranged order.
func (inc *Incremental) Arranged() []core.Report {
	var out []core.Report
	for _, lvl := range inc.arranged {
		out = append(out, lvl...)
	}
	return out
}

// workers resolves the engine's effective pool width: Options.Workers,
// with values below 1 selecting GOMAXPROCS, and a non-nil Trace forcing 1
// (trace.Recorder is single-writer and stage-event order must stay
// deterministic).
func (inc *Incremental) workers() int {
	if inc.opts.Trace != nil {
		return 1
	}
	w := inc.opts.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// Update ingests one round of reports and returns the new current map.
// Isolevels are independent — each reads only its own slice of the
// previous map and writes its own slot — so they build on a worker pool
// (Options.Workers wide); per-level stats are merged in level order
// afterwards, keeping the map and the stats identical to a sequential
// build.
func (inc *Incremental) Update(reports []core.Report, sinkValue float64) *Map {
	arranged := inc.arrange(reports)
	m := &Map{Levels: inc.levels, Bounds: inc.bounds, tr: inc.opts.Trace}
	prev := inc.cur
	m.levels = make([]*levelRecon, len(inc.values))
	statsDeltas := make([]IncrementalStats, len(inc.values))
	buildOne := func(i int) {
		var old *levelRecon
		if prev != nil {
			old = prev.levels[i]
		}
		m.levels[i] = inc.buildLevel(old, inc.values[i], i, arranged[i], sinkValue, &statsDeltas[i])
	}
	if w := min(inc.workers(), len(inc.values)); w <= 1 {
		for i := range inc.values {
			buildOne(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					buildOne(i)
				}
			}()
		}
		for i := range inc.values {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i := range inc.values {
		inc.stats.add(statsDeltas[i])
	}
	inc.cur = m
	inc.stats.Updates++
	return m
}

// add accumulates a per-level stats delta.
func (st *IncrementalStats) add(d IncrementalStats) {
	st.Updates += d.Updates
	st.LevelsReused += d.LevelsReused
	st.LevelsRebuilt += d.LevelsRebuilt
	st.CellsReused += d.CellsReused
	st.CellsRecomputed += d.CellsRecomputed
}

// arrange buckets reports by level (dropping out-of-range level indices,
// as Reconstruct does) and assigns each level's reports to stable slots:
// a report identical to one of the previous round keeps that round's slot
// whenever it still fits, and changed reports fill the freed slots in
// arrival order. Slot stability is what turns report churn into a small
// positional diff.
func (inc *Incremental) arrange(reports []core.Report) [][]core.Report {
	byLevel := make([][]core.Report, len(inc.values))
	for _, r := range reports {
		if r.LevelIndex >= 0 && r.LevelIndex < len(inc.values) {
			byLevel[r.LevelIndex] = append(byLevel[r.LevelIndex], r)
		}
	}
	out := make([][]core.Report, len(inc.values))
	for li := range byLevel {
		var prev []core.Report
		if inc.arranged != nil {
			prev = inc.arranged[li]
		}
		out[li] = arrangeLevel(prev, byLevel[li])
	}
	inc.arranged = out
	return out
}

func arrangeLevel(prev, incoming []core.Report) []core.Report {
	n := len(incoming)
	if n == 0 || len(prev) == 0 {
		return incoming
	}
	// Free slots of the previous round, keyed by exact report value;
	// slots at or past the new length cannot be kept.
	slotsOf := make(map[core.Report][]int, len(prev))
	for i := 0; i < len(prev) && i < n; i++ {
		slotsOf[prev[i]] = append(slotsOf[prev[i]], i)
	}
	arranged := make([]core.Report, n)
	occupied := make([]bool, n)
	var pending []core.Report
	for _, r := range incoming {
		if ss := slotsOf[r]; len(ss) > 0 {
			slot := ss[0]
			slotsOf[r] = ss[1:]
			arranged[slot] = r
			occupied[slot] = true
			continue
		}
		pending = append(pending, r)
	}
	pi := 0
	for i := 0; i < n; i++ {
		if !occupied[i] {
			arranged[i] = pending[pi]
			pi++
		}
	}
	return arranged
}

// buildLevel produces the new levelRecon for one isolevel, reusing as
// much of old as the site diff can prove unchanged. Work counters go to
// st, the caller's per-level accumulator (never inc.stats directly:
// buildLevel runs concurrently across levels).
func (inc *Incremental) buildLevel(old *levelRecon, lv float64, idx int, reports []core.Report, sinkValue float64, st *IncrementalStats) *levelRecon {
	lr := &levelRecon{level: lv, index: idx, fallbackInner: sinkValue >= lv}
	for _, r := range reports {
		lr.sites = append(lr.sites, r.Pos)
		lr.grads = append(lr.grads, r.Grad)
	}
	// Empty transitions (and the first round) rebuild the level outright.
	if old == nil || len(old.sites) == 0 || len(lr.sites) == 0 {
		lr.build(inc.bounds, inc.opts)
		st.LevelsRebuilt++
		return lr
	}

	diff := old.diagram.DiffSitesWorkers(lr.sites, inc.workers())
	if diff.Identical && vecsEqual(old.grads, lr.grads) {
		// Nothing changed: reuse the whole level. The copy re-derives
		// fallbackInner (only consulted on empty levels, but kept exact
		// so the oracle DeepEqual holds field by field).
		reuse := *old
		reuse.level, reuse.index = lv, idx
		reuse.fallbackInner = lr.fallbackInner
		st.LevelsReused++
		return &reuse
	}

	start := time.Now()
	if diff.Identical {
		// Sites unchanged, some gradient changed: geometry is reusable
		// as a whole; only chords/patches need work.
		lr.nn = old.nn
		lr.diagram = old.diagram
	} else {
		lr.nn = geom.NewNNIndex(lr.sites, inc.bounds)
		lr.diagram = geom.VoronoiIncremental(old.diagram, lr.sites, lr.nn, diff)
	}
	recordStage(inc.opts.Trace, trace.StageVoronoi, idx, start)
	st.CellsReused += len(lr.sites) - diff.DirtyCount
	st.CellsRecomputed += diff.DirtyCount

	start = time.Now()
	n := len(lr.sites)
	lr.baseChords = make([]geom.Segment, n)
	lr.hasChord = make([]bool, n)
	for i := 0; i < n; i++ {
		cell := &lr.diagram.Cells[i]
		if cell.Region == nil {
			continue
		}
		if !diff.Dirty[i] && old.grads[i] == lr.grads[i] {
			lr.baseChords[i] = old.baseChords[i]
			lr.hasChord[i] = old.hasChord[i]
			continue
		}
		chord, ok := chordInCell(cell.Region, lr.sites[i], lr.grads[i])
		lr.baseChords[i] = chord
		lr.hasChord[i] = ok
	}
	lr.chords = append([]geom.Segment(nil), lr.baseChords...)
	recordStage(inc.opts.Trace, trace.StageChords, idx, start)
	if inc.opts.Regulate {
		// Regulation mutates chords sequentially across shared edges, so
		// a partial re-run cannot reproduce the full sweep's floats;
		// re-running it whole from the retained bases can, and it is
		// cheap (linear in adjacent chord pairs).
		start = time.Now()
		lr.regulate(lr.diagram)
		recordStage(inc.opts.Trace, trace.StageRegulate, idx, start)
	}

	return lr
}

func vecsEqual(a, b []geom.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// raster bytes. It is the oracle check the serving daemon's -oracle mode
// and the incremental property tests run after every update; the error
// names the first divergence found.
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
