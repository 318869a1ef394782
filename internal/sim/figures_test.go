package sim

import (
	"strconv"
	"testing"
)

// parse reads a rendered cell back as a float.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestFig7ErrorDropsWithDegree(t *testing.T) {
	tb, err := testRunner.fig7GradientError(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	first := parse(t, tb.Rows[0][2])
	last := parse(t, tb.Rows[len(tb.Rows)-1][2])
	if last >= first {
		t.Errorf("gradient error did not drop with degree: %v -> %v", first, last)
	}
	// At degree >= 7 (radio 1.5+) the paper reports small errors; allow
	// our surface a slack margin.
	for _, row := range tb.Rows {
		deg := parse(t, row[1])
		mean := parse(t, row[2])
		if deg >= 7 && mean > 15 {
			t.Errorf("degree %v has mean error %v degrees — too high", deg, mean)
		}
	}
}

func TestFig13FilteringMonotone(t *testing.T) {
	tb, err := testRunner.fig13(false)
	if err != nil {
		t.Fatal(err)
	}
	// Rows are ordered sa-major, sd-minor: within one sa block, higher sd
	// must not increase sink reports.
	var prevSa, prevReports float64
	first := true
	for _, row := range tb.Rows {
		sa := parse(t, row[0])
		rep := parse(t, row[2])
		if !first && sa == prevSa && rep > prevReports {
			t.Errorf("sa=%v: reports grew with sd: %v -> %v", sa, prevReports, rep)
		}
		prevSa, prevReports, first = sa, rep, false
	}
}

func TestFig14aIsoMapWinsEverywhere(t *testing.T) {
	tb, err := testRunner.fig14aTrafficDiameter()
	if err != nil {
		t.Fatal(err)
	}
	var prevIso float64
	for i, row := range tb.Rows {
		tdbKB := parse(t, row[3])
		inlKB := parse(t, row[4])
		isoKB := parse(t, row[5])
		if isoKB >= tdbKB || isoKB >= inlKB {
			t.Errorf("row %d: Iso-Map %v KB not below TinyDB %v / INLR %v", i, isoKB, tdbKB, inlKB)
		}
		if i > 0 && isoKB < prevIso/2 {
			t.Errorf("row %d: Iso-Map traffic dropped sharply with size: %v -> %v", i, prevIso, isoKB)
		}
		prevIso = isoKB
	}
	// TinyDB traffic grows much faster than Iso-Map's across the sweep.
	firstRatio := parse(t, tb.Rows[0][3]) / parse(t, tb.Rows[0][5])
	lastRatio := parse(t, tb.Rows[len(tb.Rows)-1][3]) / parse(t, tb.Rows[len(tb.Rows)-1][5])
	if lastRatio <= firstRatio {
		t.Errorf("TinyDB/Iso-Map traffic ratio did not widen: %v -> %v", firstRatio, lastRatio)
	}
}

func TestFig15bIsoMapComputeFlat(t *testing.T) {
	tb, err := testRunner.fig15bComputeIsoMap()
	if err != nil {
		t.Fatal(err)
	}
	first := parse(t, tb.Rows[0][2])
	last := parse(t, tb.Rows[len(tb.Rows)-1][2])
	// Per-node intensity stays constant-ish (paper: does not grow with
	// network size). Allow 2x wiggle for the small-field end.
	if last > first*2 && last > 100 {
		t.Errorf("Iso-Map per-node ops grew with size: %v -> %v", first, last)
	}
}

func TestFig16EnergyOrdering(t *testing.T) {
	tb, err := testRunner.fig16Energy()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tb.Rows {
		tdbJ := parse(t, row[2])
		inlJ := parse(t, row[3])
		isoJ := parse(t, row[4])
		if isoJ >= tdbJ || isoJ >= inlJ {
			t.Errorf("row %d: Iso-Map energy %v not lowest (TinyDB %v, INLR %v)", i, isoJ, tdbJ, inlJ)
		}
	}
	// TinyDB/INLR per-node energy grows with size while Iso-Map stays
	// nearly flat (Fig. 16).
	tdbGrowth := parse(t, tb.Rows[len(tb.Rows)-1][2]) / parse(t, tb.Rows[0][2])
	isoGrowth := parse(t, tb.Rows[len(tb.Rows)-1][4]) / parse(t, tb.Rows[0][4])
	if tdbGrowth <= isoGrowth {
		t.Errorf("TinyDB energy growth %v should exceed Iso-Map's %v", tdbGrowth, isoGrowth)
	}
}

func TestTable1Measured(t *testing.T) {
	tb, err := testRunner.table1Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	// Iso-Map's measured generated reports must be far below the
	// all-nodes-report protocols (rows 0-2) and below suppression (row 3,
	// whose reduction is only a constant degree factor).
	iso := parse(t, tb.Rows[4][4])
	for i := 0; i < 3; i++ {
		other := parse(t, tb.Rows[i][4])
		if iso*2 >= other {
			t.Errorf("Iso-Map reports %v vs %s %v — should be far fewer", iso, tb.Rows[i][0], other)
		}
	}
	if sup := parse(t, tb.Rows[3][4]); iso >= sup {
		t.Errorf("Iso-Map reports %v vs Suppression %v — should be fewer", iso, sup)
	}
}

func TestFig10ReportCountsDropWithFiltering(t *testing.T) {
	tb, err := testRunner.fig10Maps(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Received reports stay within the same order of magnitude across a
	// 25x density change (the paper: 112 / 89 / 49) — filtering absorbs
	// the density growth.
	high := parse(t, tb.Rows[0][4])
	low := parse(t, tb.Rows[2][4])
	if low <= 0 || high <= 0 {
		t.Fatalf("degenerate report counts %v %v", high, low)
	}
	if high/low > 12 {
		t.Errorf("report counts scale with density too strongly: %v vs %v", high, low)
	}
	// Accuracy at density 4 beats accuracy at density 0.16 for both.
	if parse(t, tb.Rows[0][2]) <= parse(t, tb.Rows[2][2]) {
		t.Errorf("TinyDB accuracy not improving with density")
	}
	if parse(t, tb.Rows[0][3]) <= parse(t, tb.Rows[2][3]) {
		t.Errorf("Iso-Map accuracy not improving with density")
	}
}
