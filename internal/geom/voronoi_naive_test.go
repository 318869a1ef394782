package geom

// VoronoiNaive is the reference O(k^2) construction: every cell is clipped
// against the bisector of every other site in input order. It is the
// test-only oracle for the indexed construction's equivalence property
// tests and the pre-index baseline BenchmarkVoronoiNaive measures. Its
// adjacency is naiveAdjacency's midpoint attribution, independent of the
// edge labels the indexed construction reads it from. Its diagrams carry
// no index, so queries on them take the linear-scan path.
func VoronoiNaive(sites []Point, bounds Polygon) *VoronoiDiagram {
	bounds = bounds.EnsureCCW()
	d := &VoronoiDiagram{
		Bounds: bounds,
		Cells:  make([]VoronoiCell, len(sites)),
	}
	for i, s := range sites {
		cell := VoronoiCell{Site: s, Index: i}
		region := bounds
		for j, t := range sites {
			if j == i || region == nil {
				continue
			}
			if s.NearlyEqual(t) {
				// Duplicate sites split the plane ambiguously; assign the
				// region to the lower-indexed site.
				if j < i {
					region = nil
				}
				continue
			}
			region = region.ClipHalfPlane(bisectorHalfPlane(s, t))
		}
		cell.Region = region
		cell.Neighbors, cell.SharedEdges = naiveAdjacency(sites, i, region)
		d.Cells[i] = cell
	}
	return d
}

// naiveAdjacency attributes each edge of cell i's region, in region order,
// to the nearest other site of its midpoint (lowest index on ties) when
// that site is as far from the midpoint as site i is, within 1e-6; other
// edges are bounds edges. Both lists are nil when no edge is attributed.
func naiveAdjacency(sites []Point, i int, region Polygon) (nbrs []int, edges []Segment) {
	const tol = 1e-6
	if len(region) < 2 {
		return nil, nil
	}
	for k := range region {
		e := Segment{A: region[k], B: region[(k+1)%len(region)]}
		m := e.Mid()
		best, bestD2 := -1, 0.0
		for j, s := range sites {
			if j == i {
				continue
			}
			if d2 := m.Dist2To(s); best < 0 || d2 < bestD2 {
				best, bestD2 = j, d2
			}
		}
		if best < 0 {
			continue
		}
		if di, dj := m.DistTo(sites[i]), m.DistTo(sites[best]); dj < di+tol && dj >= di-tol {
			nbrs = append(nbrs, best)
			edges = append(edges, e)
		}
	}
	return nbrs, edges
}
