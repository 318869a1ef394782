// Package contour implements the sink-side contour-map generation of
// Iso-Map (Sec. 3.4): given the isoline reports <v, p, d> collected from
// the network, it reconstructs the contour regions level by level.
//
// For each isolevel the sink:
//
//  1. builds a Voronoi diagram of the reported isopositions,
//  2. draws in each cell the type-1 boundary — the chord through the
//     isoposition perpendicular to its gradient direction — splitting the
//     cell into an inner (up-gradient) and outer part,
//  3. merges the inner parts and closes them with type-2 boundaries along
//     the cell borders,
//  4. regulates the approximation with the paper's Rules 1 and 2: where
//     the chords of two adjacent cells meet their shared border at
//     different points, the jog is replaced by prolonging both chords to
//     their intersection, removing pinnacles and filling concavities, and
//  5. nests levels recursively: a region of a higher isolevel is clipped
//     to the region of every lower one.
package contour

import (
	"math"
	"runtime"
	"sync"
	"time"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/geom"
	"isomap/internal/trace"
)

// Options configures the reconstruction.
type Options struct {
	// Regulate applies regulation Rules 1-2 (Sec. 3.4). The paper's
	// algorithm always regulates; disabling is exposed for the ablation
	// benchmark.
	Regulate bool
	// Trace, when non-nil, receives per-stage wall-clock timings
	// (KindSinkStage events) for the Voronoi, chord, regulation and
	// raster stages. Nil keeps the reconstruction byte-identical to an
	// untraced run.
	Trace *trace.Recorder
	// Workers is read only by the Incremental engine, which the
	// benchmark harness still drives: the isolevels of an Update build on
	// at most Workers goroutines, and Incremental.Raster passes it to
	// RasterWorkers. Values below 1 select GOMAXPROCS. Reconstruct and
	// ReconstructWorkers ignore it; their width is an explicit argument,
	// as RasterWorkers' is.
	Workers int
}

// DefaultOptions returns the paper's configuration (regulation on).
func DefaultOptions() Options { return Options{Regulate: true} }

// patch is one regulation adjustment: membership flips for points inside
// the triangle (the pinnacle removed by Rule 1 or the concavity filled by
// Rule 2). The bounding box (padded by Eps to cover Contains' boundary
// band) lets the hot membership path reject most probes without the full
// point-in-triangle test.
type patch struct {
	tri            geom.Polygon
	x0, y0, x1, y1 float64
}

// newPatch precomputes the padded bounding box of a regulation triangle.
func newPatch(tri geom.Polygon) patch {
	x0, y0, x1, y1 := tri.BoundingBox()
	return patch{
		tri: tri,
		x0:  x0 - geom.Eps, y0: y0 - geom.Eps,
		x1: x1 + geom.Eps, y1: y1 + geom.Eps,
	}
}

// contains reports whether p flips membership: a bbox reject followed by
// the exact triangle test. Equivalent to pa.tri.Contains(p) because any
// point within Eps of the triangle boundary lies inside the padded box.
func (pa *patch) contains(p geom.Point) bool {
	if p.X < pa.x0 || p.X > pa.x1 || p.Y < pa.y0 || p.Y > pa.y1 {
		return false
	}
	return pa.tri.Contains(p)
}

// levelRecon holds the reconstruction state of one isolevel.
type levelRecon struct {
	level float64
	index int
	// sites[i] / grads[i] come from the i-th report of this level.
	sites []geom.Point
	grads []geom.Vec
	// chords[i] is the (possibly regulated) type-1 boundary in cell i;
	// hasChord[i] is false where the chord degenerated.
	chords   []geom.Segment
	hasChord []bool
	patches  []patch
	// diagram is the level's bounded Voronoi diagram: regulation walks
	// its shared edges and the raster sweep its certified walk.
	diagram *geom.VoronoiDiagram
	// nn answers nearest-site queries for this level; it is shared by
	// the Voronoi construction, membership tests and the raster sweep.
	nn *geom.NNIndex
	// fallbackInner decides membership when the level received no reports
	// at all: true means the whole field is above the level.
	fallbackInner bool
}

// Map is a reconstructed contour map.
type Map struct {
	// Levels is the isolevel scheme of the query.
	Levels field.Levels
	// Bounds is the field rectangle.
	Bounds geom.Polygon
	levels []*levelRecon
	// tr carries Options.Trace into the raster stage.
	tr *trace.Recorder
}

// recordStage emits one sink-stage timing event; level is the isolevel
// index or -1 for whole-map stages.
func recordStage(tr *trace.Recorder, stage trace.Stage, level int, start time.Time) {
	if tr == nil {
		return
	}
	tr.Record(trace.Event{Kind: trace.KindSinkStage, Node: -1, Peer: -1,
		Seq: int64(level), Arg: int32(stage), DurNs: time.Since(start).Nanoseconds()})
}

// Reconstruct builds the contour map from the sink's received reports.
// sinkValue — the attribute value sensed at the sink itself — settles the
// levels for which no isoline node reported: such a level either covers the
// whole field or none of it, and the sink's own reading discriminates.
//
// Reconstruct builds its levels one after another and ignores
// opts.Workers, so callers that already run many reconstructions in
// parallel start no goroutines of their own through it. It is
// ReconstructWorkers at width 1.
func Reconstruct(reports []core.Report, levels field.Levels, bounds geom.Polygon, sinkValue float64, opts Options) *Map {
	return ReconstructWorkers(reports, levels, bounds, sinkValue, opts, 1)
}

// ReconstructWorkers is Reconstruct with its independent isolevels built
// on at most workers goroutines (workers < 1 selects GOMAXPROCS). A
// non-nil opts.Trace forces width 1: trace.Recorder is single-writer and
// stage events keep their deterministic order. The map is identical at
// any width.
func ReconstructWorkers(reports []core.Report, levels field.Levels, bounds geom.Polygon, sinkValue float64, opts Options, workers int) *Map {
	byLevel := groupByLevel(reports, levels.Count())
	return buildMap(byLevel, levels, bounds.EnsureCCW(), sinkValue, opts, poolWidth(opts, workers))
}

// poolWidth resolves a level-pool width: 1 under a trace, GOMAXPROCS for
// workers < 1, workers otherwise.
func poolWidth(opts Options, workers int) int {
	if opts.Trace != nil {
		return 1
	}
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// groupByLevel buckets reports by level index in arrival order, dropping
// indices outside [0, n).
func groupByLevel(reports []core.Report, n int) [][]core.Report {
	byLevel := make([][]core.Report, n)
	for _, r := range reports {
		if r.LevelIndex >= 0 && r.LevelIndex < n {
			byLevel[r.LevelIndex] = append(byLevel[r.LevelIndex], r)
		}
	}
	return byLevel
}

// buildMap builds level i of the map from byLevel[i] over the CCW bounds.
// The levels are independent, so they build on min(workers, levels)
// goroutines; each writes only its own slot, and the map is identical at
// any width.
func buildMap(byLevel [][]core.Report, levels field.Levels, bounds geom.Polygon, sinkValue float64, opts Options, workers int) *Map {
	values := levels.Values()
	m := &Map{Levels: levels, Bounds: bounds, tr: opts.Trace, levels: make([]*levelRecon, len(values))}
	buildOne := func(i int) {
		lr := &levelRecon{level: values[i], index: i, fallbackInner: sinkValue >= values[i]}
		for _, r := range byLevel[i] {
			lr.sites = append(lr.sites, r.Pos)
			lr.grads = append(lr.grads, r.Grad)
		}
		lr.build(bounds, opts)
		m.levels[i] = lr
	}
	w := min(workers, len(values))
	if w <= 1 {
		for i := range values {
			buildOne(i)
		}
		return m
	}
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
	for i := range values {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return m
}

// build computes the Voronoi diagram, chords and regulation patches.
func (lr *levelRecon) build(bounds geom.Polygon, opts Options) {
	if len(lr.sites) == 0 {
		return
	}
	start := time.Now()
	lr.nn = geom.NewNNIndex(lr.sites, bounds)
	lr.diagram = geom.VoronoiWithIndex(lr.sites, bounds, lr.nn)
	recordStage(opts.Trace, trace.StageVoronoi, lr.index, start)
	start = time.Now()
	lr.chords = make([]geom.Segment, len(lr.sites))
	lr.hasChord = make([]bool, len(lr.sites))
	for i := range lr.diagram.Cells {
		cell := &lr.diagram.Cells[i]
		if cell.Region == nil {
			continue
		}
		lr.chords[i], lr.hasChord[i] = chordInCell(cell.Region, lr.sites[i], lr.grads[i])
	}
	recordStage(opts.Trace, trace.StageChords, lr.index, start)
	if opts.Regulate {
		start = time.Now()
		lr.regulate(lr.diagram)
		recordStage(opts.Trace, trace.StageRegulate, lr.index, start)
	}
}

// chordInCell clips the type-1 boundary line (through site, perpendicular
// to grad) to the convex cell, returning the chord segment.
func chordInCell(cell geom.Polygon, site geom.Point, grad geom.Vec) (geom.Segment, bool) {
	line := geom.PerpendicularAt(site, grad)
	var pts []geom.Point
	for _, e := range cell.Edges() {
		p, ok := geom.IntersectSegmentLine(e, line)
		if !ok {
			continue
		}
		dup := false
		for _, q := range pts {
			if q.NearlyEqual(p) {
				dup = true
				break
			}
		}
		if !dup {
			pts = append(pts, p)
		}
	}
	if len(pts) < 2 {
		return geom.Segment{}, false
	}
	// A convex cell yields exactly two crossing points; with numerical
	// grazing at vertices keep the farthest pair.
	best := geom.Segment{A: pts[0], B: pts[1]}
	bestLen := best.Length()
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			s := geom.Segment{A: pts[i], B: pts[j]}
			if l := s.Length(); l > bestLen {
				best, bestLen = s, l
			}
		}
	}
	if bestLen <= geom.Eps {
		return geom.Segment{}, false
	}
	return best, true
}

// regulate applies Rules 1-2 across every shared Voronoi edge: where the
// chords of adjacent cells cross the shared border at distinct points a_i
// and a_j, both chords are prolonged to their intersection q, provided q
// falls inside the union of the two cells and the chords are not close to
// perpendicular (the internal-angle window (90, 270) degrees of the two
// rules). The skipped jog triangle (a_i, a_j, q) flips membership:
// pinnacles (Rule 1) are cut, concavities (Rule 2) are filled.
func (lr *levelRecon) regulate(diagram *geom.VoronoiDiagram) {
	for i := range diagram.Cells {
		ci := &diagram.Cells[i]
		if ci.Region == nil || !lr.hasChord[i] {
			continue
		}
		for k, j := range ci.Neighbors {
			if j <= i || !lr.hasChord[j] {
				continue
			}
			cj := &diagram.Cells[j]
			if cj.Region == nil {
				continue
			}
			shared := ci.SharedEdges[k]
			ai, okI := geom.IntersectSegmentLine(shared, lineOf(lr.chords[i]))
			aj, okJ := geom.IntersectSegmentLine(shared, lineOf(lr.chords[j]))
			if !okI || !okJ || ai.NearlyEqual(aj) {
				continue
			}
			// Internal-angle window: the rules apply between 90 and 270
			// degrees, i.e. the chords deviate by less than 90 degrees.
			if lr.chords[i].Dir().AngleBetween(lr.chords[j].Dir()) > math.Pi/2 {
				continue
			}
			q, ok := geom.IntersectLines(lineOf(lr.chords[i]), lineOf(lr.chords[j]))
			if !ok {
				continue
			}
			if !ci.Region.Contains(q) && !cj.Region.Contains(q) {
				continue
			}
			tri := geom.Polygon{ai, aj, q}
			if tri.Area() <= geom.Eps {
				continue
			}
			lr.patches = append(lr.patches, newPatch(tri))
			// Re-anchor the chord endpoints nearest the shared edge at q so
			// the extracted boundary is continuous across the two cells.
			lr.chords[i] = moveEndpointToward(lr.chords[i], ai, q)
			lr.chords[j] = moveEndpointToward(lr.chords[j], aj, q)
		}
	}
}

func lineOf(s geom.Segment) geom.Line { return geom.LineThrough(s.A, s.B) }

// moveEndpointToward replaces the endpoint of s closest to anchor with q.
func moveEndpointToward(s geom.Segment, anchor, q geom.Point) geom.Segment {
	if s.A.DistTo(anchor) <= s.B.DistTo(anchor) {
		return geom.Segment{A: q, B: s.B}
	}
	return geom.Segment{A: s.A, B: q}
}

// levelInner reports whether p belongs to the contour region of this level
// in isolation (before nesting).
func (lr *levelRecon) levelInner(p geom.Point) bool {
	if len(lr.sites) == 0 {
		return lr.fallbackInner
	}
	return lr.innerAt(p, lr.nn.Nearest(p), lr.patches)
}

// levelInnerNear is levelInner for a scan of nearby probes: *hint holds
// the nearest site of the previous probe, seeds the diagram's certified
// walk and is updated in place, and patches need only hold every patch
// whose padded box contains p. The answer is hint-independent, so warm
// and cold queries agree exactly.
func (lr *levelRecon) levelInnerNear(p geom.Point, hint *int, patches []patch) bool {
	if len(lr.sites) == 0 {
		return lr.fallbackInner
	}
	*hint = lr.diagram.NearestFrom(p, *hint)
	return lr.innerAt(p, *hint, patches)
}

// innerAt decides membership from p's nearest site: the up-gradient side
// of its chord, flipped by every regulation patch containing p.
func (lr *levelRecon) innerAt(p geom.Point, nearest int, patches []patch) bool {
	inner := p.Sub(lr.sites[nearest]).Dot(lr.grads[nearest]) <= 0
	for i := range patches {
		if patches[i].contains(p) {
			inner = !inner
		}
	}
	return inner
}

// ClassifyPoint returns the contour-region index of p in the reconstructed
// map: the number of consecutive isolevels (from the lowest) whose region
// contains p. The consecutiveness enforces the paper's recursive nesting
// rule.
func (m *Map) ClassifyPoint(p geom.Point) int {
	idx := 0
	for _, lr := range m.levels {
		if !lr.levelInner(p) {
			break
		}
		idx++
	}
	return idx
}

// Raster classifies the cell centers of a rows x cols grid over the field
// bounds, producing the estimated contour map raster compared against the
// ground truth for the mapping-accuracy metric. The sweep runs on a
// GOMAXPROCS-wide worker pool; see RasterWorkers.
func (m *Map) Raster(rows, cols int) *field.Raster {
	return m.RasterWorkers(rows, cols, 0)
}

// RasterWorkers is Raster with an explicit worker-pool width (workers < 1
// selects GOMAXPROCS). Each worker scans one contiguous block of rows with
// its own rowScan, so the pool costs O(workers) goroutines and buffers
// however tall the raster. Rows write disjoint slices and every query is
// cursor-independent, so the output is byte-identical at any width.
//
// Degenerate dimensions are defined: negative rows/cols clamp to zero and
// any empty dimension returns an empty raster. Worker counts above the row
// count clamp to one worker per row.
func (m *Map) RasterWorkers(rows, cols, workers int) *field.Raster {
	start := time.Now()
	defer recordStage(m.tr, trace.StageRaster, -1, start)
	rows, cols = max(rows, 0), max(cols, 0)
	ra := field.NewRaster(rows, cols)
	if rows == 0 || cols == 0 {
		return ra
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	rowBlocks(rows, workers, func(lo, hi int) {
		s := m.newRowScan(rows, cols)
		for r := lo; r < hi; r++ {
			s.row(r, ra.Cells[r])
		}
	})
	return ra
}

// rowBlocks calls f(lo, hi) for min(workers, rows) contiguous blocks
// [lo, hi) covering rows 0..rows-1, concurrently when there is more than
// one block, and returns once every call has.
func rowBlocks(rows, workers int, f func(lo, hi int)) {
	n := min(workers, rows)
	if n <= 1 {
		f(0, rows)
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g*rows/n, (g+1)*rows/n)
		}()
	}
	wg.Wait()
}

// rowScan classifies raster cells one row at a time for one worker. Per
// level it carries a nearest-site hint from probe to probe and keeps only
// the regulation patches whose padded box spans the current row.
type rowScan struct {
	m            *Map
	x0, y0, w, h float64
	rows, cols   int
	hints        []int
	// rowHints are the hints after the previous row's first probe, the
	// nearest seeds for the next row's first probe.
	rowHints []int
	patches  [][]patch
}

func (m *Map) newRowScan(rows, cols int) *rowScan {
	x0, y0, x1, y1 := m.Bounds.BoundingBox()
	s := &rowScan{m: m, x0: x0, y0: y0, w: x1 - x0, h: y1 - y0, rows: rows, cols: cols,
		hints: make([]int, len(m.levels)), rowHints: make([]int, len(m.levels)),
		patches: make([][]patch, len(m.levels))}
	for i := range s.rowHints {
		s.rowHints[i] = -1
	}
	return s
}

// row classifies every cell center of raster row r into out.
func (s *rowScan) row(r int, out []int) {
	y := s.y0 + s.h*(float64(r)+0.5)/float64(s.rows)
	copy(s.hints, s.rowHints)
	for li, lr := range s.m.levels {
		cand := s.patches[li][:0]
		for _, pa := range lr.patches {
			if y >= pa.y0 && y <= pa.y1 {
				cand = append(cand, pa)
			}
		}
		s.patches[li] = cand
	}
	for c := range out {
		p := geom.Point{X: s.x0 + s.w*(float64(c)+0.5)/float64(s.cols), Y: y}
		idx := 0
		for li, lr := range s.m.levels {
			if !lr.levelInnerNear(p, &s.hints[li], s.patches[li]) {
				break
			}
			idx++
		}
		out[c] = idx
		if c == 0 {
			copy(s.rowHints, s.hints)
		}
	}
}

// BoundarySegments returns the estimated isoline of one isolevel: the
// (regulated) type-1 chords across all Voronoi cells. It is the curve the
// Hausdorff irregularity metric of Fig. 12 compares against the true
// isoline.
func (m *Map) BoundarySegments(levelIndex int) []geom.Segment {
	if levelIndex < 0 || levelIndex >= len(m.levels) {
		return nil
	}
	lr := m.levels[levelIndex]
	var out []geom.Segment
	for i, ok := range lr.hasChord {
		if ok {
			out = append(out, lr.chords[i])
		}
	}
	return out
}

// BoundaryPoints samples the estimated isoline of one level with the given
// spacing.
func (m *Map) BoundaryPoints(levelIndex int, step float64) []geom.Point {
	var pts []geom.Point
	for _, s := range m.BoundarySegments(levelIndex) {
		pts = append(pts, geom.Polyline{s.A, s.B}.Sample(step)...)
	}
	return pts
}

// ReportCount returns the number of reports used for one isolevel.
func (m *Map) ReportCount(levelIndex int) int {
	if levelIndex < 0 || levelIndex >= len(m.levels) {
		return 0
	}
	return len(m.levels[levelIndex].sites)
}

// PatchCount returns the number of regulation adjustments applied at one
// isolevel; exposed for the regulation ablation.
func (m *Map) PatchCount(levelIndex int) int {
	if levelIndex < 0 || levelIndex >= len(m.levels) {
		return 0
	}
	return len(m.levels[levelIndex].patches)
}
