package sim

import "testing"

func TestExtDetectPolicySweep(t *testing.T) {
	tb, err := testRunner.extDetectPolicySweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	// At the sparsest density the edge-based policy must clearly beat the
	// epsilon band (its guaranteed crossing coverage is the whole point).
	sparse := tb.Rows[0]
	if parse(t, sparse[6]) <= parse(t, sparse[3]) {
		t.Errorf("density %s: edge accuracy %s not above Def. 3.1 %s",
			sparse[0], sparse[6], sparse[3])
	}
	// At every density both policies produce usable sink report counts.
	for _, row := range tb.Rows {
		if parse(t, row[2]) <= 0 || parse(t, row[5]) <= 0 {
			t.Errorf("density %s: degenerate sink counts %s / %s", row[0], row[2], row[5])
		}
	}
	// At high density the two accuracies converge (within a few points).
	dense := tb.Rows[len(tb.Rows)-1]
	if diff := parse(t, dense[6]) - parse(t, dense[3]); diff < -0.05 || diff > 0.1 {
		t.Errorf("density %s: accuracies diverge: %s vs %s", dense[0], dense[3], dense[6])
	}
}
