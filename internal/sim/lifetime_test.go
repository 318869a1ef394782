package sim

import "testing"

func TestExtLifetimeSweep(t *testing.T) {
	tb, err := testRunner.extLifetimeSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	tdbRow, isoRow := tb.Rows[0], tb.Rows[1]
	if tdbRow[0] != "TinyDB" || isoRow[0] != "Iso-Map" {
		t.Fatalf("row order: %v / %v", tdbRow[0], isoRow[0])
	}
	tdbDeath := parse(t, tdbRow[1])
	isoDeath := parse(t, isoRow[1])
	// Iso-Map's first battery death comes much later (Fig. 16's per-round
	// gap compounds into endurance).
	if isoDeath != 0 && tdbDeath != 0 && isoDeath < tdbDeath*5 {
		t.Errorf("Iso-Map first death %v not well beyond TinyDB %v", isoDeath, tdbDeath)
	}
	tdbUnusable := parse(t, tdbRow[3])
	isoUnusable := parse(t, isoRow[3])
	if tdbUnusable == 0 {
		t.Error("TinyDB should wear out within the round budget")
	}
	if isoUnusable != 0 && isoUnusable < tdbUnusable*5 {
		t.Errorf("Iso-Map unusable at %v, TinyDB at %v — lifetime gain too small", isoUnusable, tdbUnusable)
	}
}
