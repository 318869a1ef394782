package sim

import (
	"strconv"
	"strings"
	"testing"
)

func TestExtMACSweep(t *testing.T) {
	tb, err := testRunner.extMACSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		pair := strings.Split(row[2], "/")
		if len(pair) != 2 {
			t.Fatalf("bad delivered/structural cell %q", row[2])
		}
		delivered, err := strconv.Atoi(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		structural, err := strconv.Atoi(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if row[1] == "off" && delivered != structural {
			t.Errorf("unfiltered packet-level %d != structural %d", delivered, structural)
		}
		if delivered == 0 || structural == 0 {
			t.Errorf("degenerate row %v", row)
		}
		// Physical bytes always exceed the perfect-link model (acks +
		// retries + batch framing).
		if ratio := parse(t, row[5]); ratio <= 1 {
			t.Errorf("physical/structural ratio %v should exceed 1", ratio)
		}
		if completion := parse(t, row[3]); completion <= 0 {
			t.Errorf("completion %v", completion)
		}
	}
	// Filtering shortens the packet-level collection too.
	if parse(t, tb.Rows[2][3]) >= parse(t, tb.Rows[3][3]) {
		t.Errorf("filtered completion %s not below unfiltered %s", tb.Rows[2][3], tb.Rows[3][3])
	}
}
