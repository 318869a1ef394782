package geom

import (
	"math"
	"sync"
)

// This file implements incremental Voronoi reconstruction (PR 6): given a
// diagram built by Voronoi/VoronoiWithIndex and a new site slice that
// mostly matches the old one slot by slot, DiffSites proves which cells
// cannot have changed and VoronoiIncremental reuses them verbatim,
// recomputing only the rest. The contract is byte-identity: the result
// equals VoronoiWithIndex over the new sites bit for bit, which the
// property tests pin against the full construction.
//
// The cleanliness argument rests on the per-cell scan horizon recorded by
// buildCell. The pruned construction visits candidates in increasing
// (distance, index) order and applies a clip for every candidate visited
// before the one that trips the security-radius exit; the horizon is that
// stopping candidate's squared distance. A cell whose own site is
// unchanged and whose nearest changed position lies at or beyond the
// horizon (widened by adjacencyTol, see below) therefore replays the
// identical visit sequence — same clips, in the same order, producing the
// same region floats — and its adjacency probes resolve to the same
// stable neighbors, so the whole cell struct can be reused.

// VoronoiDiff is the result of diffing a new site slice against the sites
// of a previously built diagram. Slot stability is positional: slot i is
// stable when it exists in both slices and the position is bitwise equal.
// Callers that want high stability under churn should assign sites to
// slots accordingly (see contour.Incremental's slot arrangement).
type VoronoiDiff struct {
	// Identical marks a diff with no changed slot at all: the previous
	// diagram can be reused as a whole.
	Identical bool
	// Stable[i] is true when new site i occupies the same slot with the
	// same position as in the previous diagram.
	Stable []bool
	// Dirty[i] marks cells whose region or adjacency must be recomputed:
	// every unstable slot, plus stable slots whose scan horizon a changed
	// position intrudes on. Clean (non-dirty) cells are provably
	// byte-identical to a full rebuild.
	Dirty []bool
	// DirtyCount is the number of true entries in Dirty.
	DirtyCount int
	// StaleOld lists previous-diagram slots whose site vanished or moved;
	// their old regions bound where nearest-site membership can have
	// changed on the removal side.
	StaleOld []int
	// Deltas are the changed positions: previous sites at stale slots
	// plus new sites at unstable slots.
	Deltas []Point
	// NearDupe is true when some delta lies within duplicate-resolution
	// range of another site (previous, new, or another delta). Cell reuse
	// stays exact, but region-based changed-area bounds are unsound under
	// duplicate ambiguity: callers deriving a dirty area from cell
	// regions must fall back to treating the whole level as changed.
	NearDupe bool
}

// dupeSlack is the distance under which two positions may fall into
// NearlyEqual duplicate resolution (component-wise Eps, so anything
// within Eps*sqrt(2); 4*Eps is a safe cover).
const dupeSlack = 4 * Eps

// DiffSites diffs sites against the receiver's generating sites. The
// receiver must have been built by Voronoi, VoronoiWithIndex or
// VoronoiIncremental over the same bounds (diagrams with infinite
// horizons, such as the naive test oracle's, diff every cell dirty —
// correct but never an improvement).
func (d *VoronoiDiagram) DiffSites(sites []Point) VoronoiDiff {
	return d.DiffSitesWorkers(sites, 1)
}

// DiffSitesWorkers is DiffSites with the per-slot horizon checks — the
// dominant cost on large mostly-stable rounds — fanned out over a bounded
// worker pool. Every slot's verdict is an independent pure function of the
// prebuilt delta index, DirtyCount is a sum and NearDupe an OR, so the
// returned diff is identical to the sequential one at any width. workers
// below 2 (and slot counts too small to amortize a goroutine) run inline.
func (d *VoronoiDiagram) DiffSitesWorkers(sites []Point, workers int) VoronoiDiff {
	old := d.Cells
	diff := VoronoiDiff{
		Stable: make([]bool, len(sites)),
		Dirty:  make([]bool, len(sites)),
	}
	minLen := len(old)
	if len(sites) < minLen {
		minLen = len(sites)
	}
	for i := 0; i < minLen; i++ {
		if old[i].Site == sites[i] {
			diff.Stable[i] = true
		} else {
			diff.StaleOld = append(diff.StaleOld, i)
			diff.Deltas = append(diff.Deltas, old[i].Site, sites[i])
		}
	}
	for i := minLen; i < len(old); i++ {
		diff.StaleOld = append(diff.StaleOld, i)
		diff.Deltas = append(diff.Deltas, old[i].Site)
	}
	for i := minLen; i < len(sites); i++ {
		diff.Deltas = append(diff.Deltas, sites[i])
	}
	if len(diff.Deltas) == 0 {
		diff.Identical = true
		return diff
	}
	deltaNN := NewNNIndex(diff.Deltas, d.Bounds)
	// checkSpan classifies slots [lo,hi), returning the span's dirty count
	// and near-dupe verdict. Writes land in disjoint Dirty slots.
	checkSpan := func(lo, hi int) (dirty int, nearDupe bool) {
		for i := lo; i < hi; i++ {
			if !diff.Stable[i] {
				diff.Dirty[i] = true
				dirty++
				continue
			}
			s := sites[i]
			nd := deltaNN.Nearest(s)
			dd := math.Sqrt(s.Dist2To(diff.Deltas[nd]))
			if dd <= dupeSlack {
				nearDupe = true
			}
			// The horizon covers the clip sequence; the adjacencyTol pad
			// covers edgeNeighbor's equidistance band around the region
			// boundary, which extends up to tol past twice the security
			// radius.
			if dd <= math.Sqrt(old[i].horizonD2)+adjacencyTol {
				diff.Dirty[i] = true
				dirty++
			}
		}
		return dirty, nearDupe
	}
	const minSpan = 64
	if workers > len(sites)/minSpan {
		workers = len(sites) / minSpan
	}
	if workers <= 1 {
		diff.DirtyCount, diff.NearDupe = checkSpan(0, len(sites))
	} else {
		counts := make([]int, workers)
		dupes := make([]bool, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(sites) / workers
			hi := (w + 1) * len(sites) / workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				counts[w], dupes[w] = checkSpan(lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			diff.DirtyCount += counts[w]
			diff.NearDupe = diff.NearDupe || dupes[w]
		}
	}
	if !diff.NearDupe {
		for i := range diff.Deltas {
			j := deltaNN.NearestExcluding(diff.Deltas[i], i)
			if j >= 0 && math.Sqrt(diff.Deltas[i].Dist2To(diff.Deltas[j])) <= dupeSlack {
				diff.NearDupe = true
				break
			}
		}
	}
	return diff
}

// VoronoiIncremental rebuilds the diagram over sites, reusing from prev
// every cell diff marks clean and recomputing the dirty ones with index
// (a fresh NNIndex over sites and prev.Bounds). diff must come from
// prev.DiffSites(sites). The result is byte-identical to
// VoronoiWithIndex(sites, prev.Bounds, index).
func VoronoiIncremental(prev *VoronoiDiagram, sites []Point, index *NNIndex, diff VoronoiDiff) *VoronoiDiagram {
	d := &VoronoiDiagram{
		Bounds: prev.Bounds,
		Cells:  make([]VoronoiCell, len(sites)),
		index:  index,
		walk:   voronoiWalk{bounds: prev.walk.bounds},
	}
	var sc voronoiScratch
	for i := range sites {
		if !diff.Dirty[i] {
			// Shares Region/Neighbors/SharedEdges slices with prev; all
			// immutable after construction.
			d.Cells[i] = prev.Cells[i]
			continue
		}
		d.buildCell(&sc, sites, i)
	}
	d.walk.link(d.Cells)
	return d
}
