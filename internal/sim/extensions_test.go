package sim

import "testing"

func TestExtNoiseSweepDegradesGracefully(t *testing.T) {
	tb, err := testRunner.extNoiseSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	accClean := parse(t, tb.Rows[0][3])
	accNoisy := parse(t, tb.Rows[len(tb.Rows)-1][3])
	if accClean < 0.85 {
		t.Errorf("clean accuracy = %v", accClean)
	}
	if accNoisy >= accClean {
		t.Errorf("heavy noise did not reduce accuracy: %v vs %v", accNoisy, accClean)
	}
	// Noise inflates the isoline-node population: more nodes' readings
	// wander into the border region.
	genClean := parse(t, tb.Rows[0][1])
	genNoisy := parse(t, tb.Rows[len(tb.Rows)-1][1])
	if genNoisy <= genClean {
		t.Errorf("noise did not inflate generated reports: %v vs %v", genNoisy, genClean)
	}
}

func TestExtScopeSweepTradesTrafficForPrecision(t *testing.T) {
	tb, err := testRunner.extScopeSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Wider scope costs more traffic.
	if parse(t, tb.Rows[2][3]) <= parse(t, tb.Rows[0][3]) {
		t.Errorf("3-hop traffic %v not above 1-hop %v", tb.Rows[2][3], tb.Rows[0][3])
	}
	// Gradient error stays bounded at every scope.
	for _, row := range tb.Rows {
		if e := parse(t, row[1]); e > 25 {
			t.Errorf("scope %s: gradient error %v too high", row[0], e)
		}
	}
}

func TestExtLossSweepMonotone(t *testing.T) {
	tb, err := testRunner.extLossSweep()
	if err != nil {
		t.Fatal(err)
	}
	var prevIso float64
	for i, row := range tb.Rows {
		iso := parse(t, row[3])
		if i > 0 && iso <= prevIso {
			t.Errorf("row %d: energy did not grow with loss: %v <= %v", i, iso, prevIso)
		}
		prevIso = iso
		// Iso-Map stays the cheapest at every loss rate.
		if iso >= parse(t, row[1]) || iso >= parse(t, row[2]) {
			t.Errorf("row %d: Iso-Map %v not cheapest", i, iso)
		}
	}
}

func TestExtMonitorRoundsTemporalSaves(t *testing.T) {
	tb, err := testRunner.extMonitorRounds(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// After the first round the delta session transmits less than the
	// full-report one.
	var tempSum, plainSum float64
	for _, row := range tb.Rows[1:] {
		tempSum += parse(t, row[2])
		plainSum += parse(t, row[4])
	}
	if tempSum >= plainSum {
		t.Errorf("temporal traffic %v not below plain %v", tempSum, plainSum)
	}
}
