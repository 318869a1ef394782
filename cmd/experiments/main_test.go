package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isomap/internal/sim"
)

func runArgs(t *testing.T, stdout io.Writer, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return run(fs, args, stdout)
}

func TestUnknownFigureListsIDs(t *testing.T) {
	var out bytes.Buffer
	err := runArgs(t, &out, "-figure", "nosuch")
	if err == nil {
		t.Fatal("-figure nosuch: nil error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nosuch"`) {
		t.Errorf("error %q does not name the unknown figure", msg)
	}
	ids := []string{"all"}
	for _, e := range sim.Experiments {
		ids = append(ids, e.ID)
	}
	for _, id := range ids {
		if !strings.Contains(msg, id) {
			t.Errorf("error %q does not list %q", msg, id)
		}
	}
	if out.Len() != 0 {
		t.Errorf("unknown figure printed %q", out.String())
	}
}

// TestUnknownFormatFails checks that -format accepts only text and csv:
// any other value fails before a table is regenerated, listing both.
func TestUnknownFormatFails(t *testing.T) {
	for _, format := range []string{"json", "CSV", ""} {
		var out bytes.Buffer
		err := runArgs(t, &out, "-figure", "fig9", "-runs", "1", "-format", format)
		if err == nil {
			t.Fatalf("-format %q: nil error", format)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("%q", format)) || !strings.Contains(msg, "text") || !strings.Contains(msg, "csv") {
			t.Errorf("-format %q: error %q does not name the format and list text and csv", format, msg)
		}
		if out.Len() != 0 {
			t.Errorf("-format %q printed %q", format, out.String())
		}
	}
}

func TestFigureCSVOut(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runArgs(t, &out, "-figure", "table1", "-format", "csv", "-out", dir, "-runs", "1", "-parallel", "2"); err != nil {
		t.Fatal(err)
	}
	want := runExperiment(t, "table1").CSV()
	got, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("table1.csv =\n%s\nwant\n%s", got, want)
	}
	if out.String() != want {
		t.Errorf("stdout =\n%s\nwant\n%s", out.String(), want)
	}
}

// TestFigureText checks the text format against the experiment's own
// table, with the heap profile written at exit.
func TestFigureText(t *testing.T) {
	heap := filepath.Join(t.TempDir(), "heap.pprof")
	var out bytes.Buffer
	if err := runArgs(t, &out, "-figure", "fig9", "-runs", "1", "-memprofile", heap); err != nil {
		t.Fatal(err)
	}
	if want := runExperiment(t, "fig9").String() + "\n"; out.String() != want {
		t.Errorf("stdout =\n%s\nwant\n%s", out.String(), want)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
}

func TestBadFlagFails(t *testing.T) {
	if err := runArgs(t, io.Discard, "-parallel", "garbage"); err == nil {
		t.Error("-parallel garbage: nil error")
	}
}

// runExperiment regenerates one sim.Experiments entry at runs = 1.
func runExperiment(t *testing.T, id string) *sim.Table {
	t.Helper()
	for _, e := range sim.Experiments {
		if e.ID == id {
			tb, err := e.Run(sim.NewRunner(1), 1)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil
}
