package geom

// CheckMatchesNaive and CertifiedCells expose the oracle comparison and
// the certificate count to the external test package, which builds its
// site sets with the simulator.
var CheckMatchesNaive = checkMatchesNaive

// CertifiedCells returns how many of d's cells certify.
func CertifiedCells(d *VoronoiDiagram) int {
	n := 0
	for i := range d.Cells {
		if d.Cells[i].certified {
			n++
		}
	}
	return n
}
