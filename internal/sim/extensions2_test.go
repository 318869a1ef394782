package sim

import "testing"

func TestExtLatencySweep(t *testing.T) {
	tb, err := testRunner.extLatencySweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	// Rows alternate filter on/off per side; with filtering the epoch is
	// shorter and buffers smaller.
	for i := 0; i < len(tb.Rows); i += 2 {
		on := tb.Rows[i]
		off := tb.Rows[i+1]
		if on[2] != "on" || off[2] != "off" {
			t.Fatalf("row labels: %v / %v", on[2], off[2])
		}
		if parse(t, on[3]) > parse(t, off[3]) {
			t.Errorf("side %s: filtered epoch %s longer than unfiltered %s", on[0], on[3], off[3])
		}
		if parse(t, on[4]) > parse(t, off[4]) {
			t.Errorf("side %s: filtered queue %s above unfiltered %s", on[0], on[4], off[4])
		}
	}
}

func TestExtLocalizeSweep(t *testing.T) {
	tb, err := testRunner.extLocalizeSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	// The GPS row (last) has zero position error and the best accuracy up
	// to noise; position error shrinks as anchors grow.
	gps := tb.Rows[len(tb.Rows)-1]
	if parse(t, gps[1]) != 0 {
		t.Errorf("GPS position error = %s", gps[1])
	}
	// DV-hop errors stay bounded (a couple of radio ranges) at every
	// anchor count; the count itself mostly trades flooding cost, not
	// accuracy, so no monotonicity is asserted.
	accGPS := parse(t, gps[2])
	for _, row := range tb.Rows[:len(tb.Rows)-1] {
		if e := parse(t, row[1]); e <= 0 || e > 6 {
			t.Errorf("%s anchors: position error %v out of plausible range", row[0], e)
		}
		// Localization always costs accuracy relative to GPS.
		if acc := parse(t, row[2]); acc >= accGPS {
			t.Errorf("%s anchors: accuracy %v not below GPS %v", row[0], acc, accGPS)
		}
	}
}
