package geom

import (
	"sort"
	"testing"
	"unsafe"
)

// TestVoronoiAllocsPerCell pins the construction's allocation contract:
// clips, candidate ordering and adjacency run in per-build scratch, so a
// kept cell allocates only its region, neighbor list and shared-edge list.
// The bound is that 3 plus the build's fixed cost (the index, the cell
// array, the scratch growing to its working size) spread over k = 512
// cells: 3.06 measured, rounded up. A clip that allocates again costs
// several allocations per cell and fails it.
func TestVoronoiAllocsPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const maxAllocsPerCell = 3.1
	sites := benchSites(512)
	bounds := Rect(0, 0, 50, 50)
	allocs := testing.AllocsPerRun(10, func() { Voronoi(sites, bounds) })
	if perCell := allocs / float64(len(sites)); perCell > maxAllocsPerCell {
		t.Errorf("Voronoi allocated %.0f times for %d cells (%.2f per cell), want at most %.1f per cell",
			allocs, len(sites), perCell, maxAllocsPerCell)
	}
}

// snapshotDiagram deep-copies every cell, so later builds cannot reach the
// copy through shared backing arrays.
func snapshotDiagram(d *VoronoiDiagram) *VoronoiDiagram {
	s := &VoronoiDiagram{Bounds: d.Bounds, Cells: make([]VoronoiCell, len(d.Cells))}
	for i, c := range d.Cells {
		c.Region = append(Polygon(nil), c.Region...)
		c.Neighbors = append([]int(nil), c.Neighbors...)
		c.SharedEdges = append([]Segment(nil), c.SharedEdges...)
		s.Cells[i] = c
	}
	return s
}

// span is the address range of one slice's backing array.
type span struct{ lo, hi uintptr }

func backing[T any](s []T) (span, bool) {
	if cap(s) == 0 {
		return span{}, false
	}
	var elem T
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(elem)}, true
}

// overlapping returns a pair of spans that share an address, or false
// when every span is disjoint from the others.
func overlapping(spans []span) (a, b span, ok bool) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return spans[i-1], spans[i], true
		}
	}
	return span{}, span{}, false
}

// TestVoronoiCellsOwnTheirSlices builds a diagram, then a second one over
// other sites through the same construction paths. A region or adjacency
// list left pointing into a scratch buffer would be overwritten by the
// later build, so the first diagram must be unchanged bit for bit and no
// two cells may share backing memory.
func TestVoronoiCellsOwnTheirSlices(t *testing.T) {
	bounds := Rect(0, 0, 50, 50)
	a := Voronoi(benchSites(600), bounds)
	want := voronoiDigest(snapshotDiagram(a))

	b := Voronoi(isolineSites(700), bounds)

	if got := voronoiDigest(a); got != want {
		t.Fatalf("diagram changed after a later build: digest %s, want %s", got, want)
	}
	var regions, neighbors, edges []span
	for _, d := range []*VoronoiDiagram{a, b} {
		for _, cell := range d.Cells {
			// An unclipped cell shares the bounds polygon by design.
			if sp, ok := backing(cell.Region); ok && unsafe.SliceData(cell.Region) != unsafe.SliceData(d.Bounds) {
				regions = append(regions, sp)
			}
			if sp, ok := backing(cell.Neighbors); ok {
				neighbors = append(neighbors, sp)
			}
			if sp, ok := backing(cell.SharedEdges); ok {
				edges = append(edges, sp)
			}
		}
	}
	for name, spans := range map[string][]span{"regions": regions, "neighbors": neighbors, "shared edges": edges} {
		if x, y, ok := overlapping(spans); ok {
			t.Errorf("two cells' %s share memory: [%#x, %#x) and [%#x, %#x)", name, x.lo, x.hi, y.lo, y.hi)
		}
	}
}
