// Incremental reconstruction (PR 6): the sink of a continuously monitored
// deployment receives a report round every few seconds, but successive
// rounds share most of their reports — isopositions are node positions,
// and only nodes near a moving isoline change their mind. Incremental
// keeps the previous round's per-level state (Voronoi diagram, base
// chords, raster) and recomputes only what a changed report can have
// touched, with the full Reconstruct as its byte-identical oracle.
//
// The contract: Update(reports, sinkValue) returns a Map equal (bit for
// bit — DeepEqual, including every region float) to
// Reconstruct(Arranged(), levels, bounds, sinkValue, opts), where
// Arranged is the deterministic per-level permutation of the input
// reports the engine maintains to keep report slots stable across rounds.
// Raster output is likewise byte-identical to the full raster of that
// map. The incremental_test.go property tests pin both.
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
	// RasterCellsCopied / RasterCellsReclassified split the raster cells
	// of incremental raster refreshes; RasterFullRebuilds counts rasters
	// recomputed from scratch.
	RasterCellsCopied       int
	RasterCellsReclassified int
	RasterFullRebuilds      int
}

// dirtyRect is an axis-aligned region (bounds coordinates) inside which
// raster membership may have changed since the previous round.
type dirtyRect struct{ x0, y0, x1, y1 float64 }

type cachedRaster struct {
	version int
	ra      *field.Raster
}

// Incremental is the multi-round reconstruction engine. It is not safe
// for concurrent use; serialize Update/Raster calls (the serving daemon
// takes a per-deployment lock) — Maps and Rasters it has returned remain
// valid and read-only forever.
type Incremental struct {
	levels field.Levels
	bounds geom.Polygon
	opts   Options
	values []float64

	version  int
	cur      *Map
	arranged [][]core.Report

	// lastDirty bounds the membership changes of the latest Update;
	// lastFull marks rounds where no bound was provable (first round,
	// duplicate ambiguity, empty transitions).
	lastDirty []dirtyRect
	lastFull  bool
	rasters   map[[2]int]cachedRaster

	stats IncrementalStats
}

// NewIncremental creates an engine for one deployment's query. opts must
// stay fixed for the engine's lifetime (they parameterize every oracle
// comparison).
func NewIncremental(levels field.Levels, bounds geom.Polygon, opts Options) *Incremental {
	return &Incremental{
		levels:  levels,
		bounds:  bounds.EnsureCCW(),
		opts:    opts,
		values:  levels.Values(),
		rasters: make(map[[2]int]cachedRaster),
	}
}

// Map returns the current map (nil before the first Update).
func (inc *Incremental) Map() *Map { return inc.cur }

// Version returns the number of completed Updates.
func (inc *Incremental) Version() int { return inc.version }

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
// (Options.Workers wide); per-level stats and dirty rectangles are merged
// in level order afterwards, keeping the map, the stats and the dirty
// bounds byte-identical to a sequential build.
func (inc *Incremental) Update(reports []core.Report, sinkValue float64) *Map {
	arranged := inc.arrange(reports)
	m := &Map{Levels: inc.levels, Bounds: inc.bounds, tr: inc.opts.Trace}
	prev := inc.cur
	m.levels = make([]*levelRecon, len(inc.values))
	dirties := make([]levelDirty, len(inc.values))
	statsDeltas := make([]IncrementalStats, len(inc.values))
	buildOne := func(i int) {
		var old *levelRecon
		if prev != nil {
			old = prev.levels[i]
		}
		m.levels[i], dirties[i] = inc.buildLevel(old, inc.values[i], i, arranged[i], sinkValue, &statsDeltas[i])
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
	var dirty []dirtyRect
	wholeDirty := prev == nil
	for i := range inc.values {
		if dirties[i].whole {
			wholeDirty = true
		}
		dirty = append(dirty, dirties[i].rects...)
		inc.stats.add(statsDeltas[i])
	}
	inc.version++
	inc.cur = m
	inc.lastDirty = dirty
	inc.lastFull = wholeDirty
	inc.stats.Updates++
	return m
}

// add accumulates a per-level (or per-row) stats delta.
func (st *IncrementalStats) add(d IncrementalStats) {
	st.Updates += d.Updates
	st.LevelsReused += d.LevelsReused
	st.LevelsRebuilt += d.LevelsRebuilt
	st.CellsReused += d.CellsReused
	st.CellsRecomputed += d.CellsRecomputed
	st.RasterCellsCopied += d.RasterCellsCopied
	st.RasterCellsReclassified += d.RasterCellsReclassified
	st.RasterFullRebuilds += d.RasterFullRebuilds
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

// levelDirty bounds where one level's membership function changed.
type levelDirty struct {
	whole bool
	rects []dirtyRect
}

// buildLevel produces the new levelRecon for one isolevel, reusing as
// much of old as the site diff can prove unchanged. Work counters go to
// st, the caller's per-level accumulator (never inc.stats directly:
// buildLevel runs concurrently across levels).
func (inc *Incremental) buildLevel(old *levelRecon, lv float64, idx int, reports []core.Report, sinkValue float64, st *IncrementalStats) (*levelRecon, levelDirty) {
	lr := &levelRecon{level: lv, index: idx, fallbackInner: sinkValue >= lv}
	for _, r := range reports {
		lr.sites = append(lr.sites, r.Pos)
		lr.grads = append(lr.grads, r.Grad)
	}
	// Empty transitions (and the first round) rebuild the level outright.
	if old == nil || len(old.sites) == 0 || len(lr.sites) == 0 {
		lr.build(inc.bounds, inc.opts)
		st.LevelsRebuilt++
		if old != nil && len(old.sites) == 0 && len(lr.sites) == 0 && old.fallbackInner == lr.fallbackInner {
			return lr, levelDirty{}
		}
		return lr, levelDirty{whole: true}
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
		return &reuse, levelDirty{}
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

	return lr, inc.levelDirtyArea(old, lr, diff)
}

// levelDirtyArea bounds where the level's membership changed: the old
// regions of vanished/moved slots, the new regions of unstable and
// gradient-changed slots, and the symmetric difference of regulation
// patches. Nearest-site membership outside those regions is unchanged —
// a probe can only switch its nearest site to or from a changed site, and
// then it lies inside that site's (old or new) region. Duplicate
// ambiguity (NearDupe) and nil regions void the region covering, falling
// back to the whole level.
func (inc *Incremental) levelDirtyArea(old, lr *levelRecon, diff geom.VoronoiDiff) levelDirty {
	if diff.NearDupe {
		return levelDirty{whole: true}
	}
	ld := levelDirty{}
	addRegion := func(region geom.Polygon) bool {
		if region == nil {
			return false
		}
		x0, y0, x1, y1 := region.BoundingBox()
		ld.rects = append(ld.rects, dirtyRect{x0 - geom.Eps, y0 - geom.Eps, x1 + geom.Eps, y1 + geom.Eps})
		return true
	}
	for _, oi := range diff.StaleOld {
		if !addRegion(old.diagram.Cells[oi].Region) {
			return levelDirty{whole: true}
		}
	}
	for i := range lr.sites {
		changed := !diff.Stable[i] ||
			(i < len(old.grads) && old.grads[i] != lr.grads[i])
		if !changed {
			continue
		}
		if !addRegion(lr.diagram.Cells[i].Region) {
			return levelDirty{whole: true}
		}
	}
	// Patches flip membership parity inside their triangles; a patch
	// present in both rounds (same vertices) cancels out.
	if len(old.patches) > 0 || len(lr.patches) > 0 {
		type triKey [6]float64
		keyOf := func(pa *patch) triKey {
			return triKey{pa.tri[0].X, pa.tri[0].Y, pa.tri[1].X, pa.tri[1].Y, pa.tri[2].X, pa.tri[2].Y}
		}
		count := make(map[triKey]int, len(old.patches)+len(lr.patches))
		rect := make(map[triKey]dirtyRect, len(old.patches)+len(lr.patches))
		for i := range old.patches {
			pa := &old.patches[i]
			k := keyOf(pa)
			count[k]++
			rect[k] = dirtyRect{pa.x0, pa.y0, pa.x1, pa.y1}
		}
		for i := range lr.patches {
			pa := &lr.patches[i]
			k := keyOf(pa)
			count[k]--
			rect[k] = dirtyRect{pa.x0, pa.y0, pa.x1, pa.y1}
		}
		for k, c := range count {
			if c != 0 {
				ld.rects = append(ld.rects, rect[k])
			}
		}
	}
	return ld
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
// map, byte-identical to Map().RasterWorkers(rows, cols, 1). When the
// same resolution was rastered for the previous round and the latest
// Update bounded its membership changes, only cells whose centers fall in
// the dirty rectangles are reclassified; the rest are copied. Returned
// rasters are cached per resolution and must be treated as read-only.
func (inc *Incremental) Raster(rows, cols int) *field.Raster {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	if inc.cur == nil {
		return field.NewRaster(rows, cols)
	}
	key := [2]int{rows, cols}
	c, ok := inc.rasters[key]
	if ok && c.version == inc.version {
		return c.ra
	}
	var ra *field.Raster
	if ok && c.version == inc.version-1 && !inc.lastFull && rows > 0 && cols > 0 {
		ra = inc.rasterFromPrev(c.ra, rows, cols)
	} else {
		ra = inc.cur.RasterWorkers(rows, cols, inc.opts.Workers)
		inc.stats.RasterFullRebuilds++
	}
	inc.rasters[key] = cachedRaster{version: inc.version, ra: ra}
	return ra
}

// rasterFromPrev refreshes prev into a new raster: rows outside every
// dirty rectangle are copied; inside, cells are reclassified with the
// full sweep's rowScan (answers are cursor-independent, so partial scans
// agree with full ones exactly). Rows write disjoint slices, so contiguous
// row blocks refresh on a worker pool (Options.Workers) with per-block
// stats deltas summed afterwards — byte-identical output and identical
// stats at any width.
func (inc *Incremental) rasterFromPrev(prev *field.Raster, rows, cols int) *field.Raster {
	m := inc.cur
	ra := field.NewRaster(rows, cols)
	x0, y0, x1, y1 := m.Bounds.BoundingBox()
	w, h := x1-x0, y1-y0

	type span struct{ r0, r1, c0, c1 int }
	spans := make([]span, 0, len(inc.lastDirty))
	for _, d := range inc.lastDirty {
		s := span{
			r0: clampIdx(floorIdx((d.y0-y0)/h, rows), rows),
			r1: clampIdx(ceilIdx((d.y1-y0)/h, rows), rows),
			c0: clampIdx(floorIdx((d.x0-x0)/w, cols), cols),
			c1: clampIdx(ceilIdx((d.x1-x0)/w, cols), cols),
		}
		if s.r0 > s.r1 || s.c0 > s.c1 {
			continue
		}
		spans = append(spans, s)
	}

	nb := min(inc.workers(), rows)
	deltas := make([]IncrementalStats, nb)
	rowBlocks(rows, nb, func(g, lo, hi int) {
		st := &deltas[g]
		sc := m.newRowScan(rows, cols)
		var ivs [][2]int
		for r := lo; r < hi; r++ {
			copy(ra.Cells[r], prev.Cells[r])
			ivs = ivs[:0]
			for _, s := range spans {
				if r >= s.r0 && r <= s.r1 {
					ivs = append(ivs, [2]int{s.c0, s.c1})
				}
			}
			redone := 0
			if len(ivs) > 0 {
				sc.startRow(r)
				for _, iv := range mergeIntervals(ivs) {
					sc.span(ra.Cells[r], iv[0], iv[1])
					redone += iv[1] - iv[0] + 1
				}
			}
			st.RasterCellsReclassified += redone
			st.RasterCellsCopied += cols - redone
		}
	})
	for g := range deltas {
		inc.stats.add(deltas[g])
	}
	return ra
}

// floorIdx / ceilIdx convert a fractional bounds coordinate into the
// first/last raster index whose cell center can lie inside it; the extra
// half-cell slack errs toward reclassifying a boundary cell.
func floorIdx(frac float64, n int) int {
	v := frac*float64(n) - 0.5
	i := int(v)
	if float64(i) > v {
		i--
	}
	return i
}

func ceilIdx(frac float64, n int) int {
	v := frac*float64(n) - 0.5
	i := int(v)
	if float64(i) < v {
		i++
	}
	return i
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
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
		ra, rb := a.RasterWorkers(rows, cols, 1), b.RasterWorkers(rows, cols, 1)
		for r := range ra.Cells {
			for c := range ra.Cells[r] {
				if ra.Cells[r][c] != rb.Cells[r][c] {
					return fmt.Errorf("contour: raster cell (%d,%d) = %d vs %d", r, c, ra.Cells[r][c], rb.Cells[r][c])
				}
			}
		}
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

// mergeIntervals merges overlapping [a,b] column intervals in place-ish.
func mergeIntervals(ivs [][2]int) [][2]int {
	if len(ivs) <= 1 {
		return ivs
	}
	// Insertion sort by start: span counts are small.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j][0] < ivs[j-1][0]; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv[0] <= last[1]+1 {
			if iv[1] > last[1] {
				last[1] = iv[1]
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
