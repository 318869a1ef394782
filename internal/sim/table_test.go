package sim

import (
	"strings"
	"testing"
)

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tb.AddRow(1.5, "plain")
	tb.AddRow(-1.0, `quo"te,comma`)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), csv)
	}
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1.5,plain" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != `-,"quo""te,comma"` {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure regeneration is slow")
	}
	tables, err := testRunner.AllFigures(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 15 {
		t.Fatalf("tables = %d, want 15", len(tables))
	}
	seen := make(map[string]bool)
	for _, tb := range tables {
		if tb.ID == "" || len(tb.Rows) == 0 || len(tb.Columns) == 0 {
			t.Fatalf("degenerate table %+v", tb)
		}
		if seen[tb.ID] {
			t.Fatalf("duplicate table id %s", tb.ID)
		}
		seen[tb.ID] = true
		// Every row has the full column count.
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("%s: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
			}
		}
	}
}
