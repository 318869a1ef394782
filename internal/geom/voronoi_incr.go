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
// stopping candidate's squared distance. (buildCell skips the clips that
// provably leave the region unchanged, but its horizon and region are
// those of this sequence.) A cell whose own site is
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
	// Deltas are the changed positions: previous sites at slots whose
	// site vanished or moved, plus new sites at unstable slots.
	Deltas []Point
}

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
// prebuilt delta index and DirtyCount is a sum, so the returned diff is
// identical to the sequential one at any width. workers below 2 (and slot
// counts too small to amortize a goroutine) run inline.
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
			diff.Deltas = append(diff.Deltas, old[i].Site, sites[i])
		}
	}
	for i := minLen; i < len(old); i++ {
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
	// checkSpan classifies slots [lo,hi), returning the span's dirty
	// count. Writes land in disjoint Dirty slots.
	checkSpan := func(lo, hi int) (dirty int) {
		for i := lo; i < hi; i++ {
			if !diff.Stable[i] {
				diff.Dirty[i] = true
				dirty++
				continue
			}
			s := sites[i]
			dd := math.Sqrt(s.Dist2To(diff.Deltas[deltaNN.Nearest(s)]))
			// The horizon covers the clip sequence; the adjacencyTol pad
			// covers edgeNeighbor's equidistance band around the region
			// boundary, which extends up to tol past twice the security
			// radius.
			if dd <= math.Sqrt(old[i].horizonD2)+adjacencyTol {
				diff.Dirty[i] = true
				dirty++
			}
		}
		return dirty
	}
	const minSpan = 64
	if workers > len(sites)/minSpan {
		workers = len(sites) / minSpan
	}
	if workers <= 1 {
		diff.DirtyCount = checkSpan(0, len(sites))
		return diff
	}
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(sites) / workers
		hi := (w + 1) * len(sites) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			counts[w] = checkSpan(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, c := range counts {
		diff.DirtyCount += c
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
