package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// testRunner is the Runner the package's tests share, so their sweeps
// and scenario builds reuse each other's cached deployments.
var testRunner = NewRunner(0)

// experimentsDigest is the SHA-256 of the text rendering of every
// Experiments table at runs = 1, concatenated in list order. It was
// recorded before the experiments were gathered into one list, so it
// pins every table of Sec. 5 and every extension sweep byte for byte. It
// was re-recorded once when contour chords became gradient-oriented.
const experimentsDigest = "0a2babcbe9f716f93dbcec629ce212a20f756ec80235f6c276e5e3a1e93af66d"

func TestExperimentsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment at runs = 1")
	}
	h := sha256.New()
	byID := make(map[string]string)
	for _, e := range Experiments {
		tb, err := e.Run(testRunner, 1)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tb.ID != e.ID {
			t.Errorf("experiment %q returned table %q", e.ID, tb.ID)
		}
		byID[e.ID] = tb.String()
		io.WriteString(h, byID[e.ID])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != experimentsDigest {
		t.Errorf("experiments digest = %s, want %s", got, experimentsDigest)
	}

	tables, err := testRunner.AllFigures(1)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range Experiments {
		if e.InAll {
			want = append(want, e.ID)
		}
	}
	if len(tables) != len(want) {
		t.Fatalf("AllFigures returned %d tables, want %d (%v)", len(tables), len(want), want)
	}
	for i, tb := range tables {
		if tb.ID != want[i] {
			t.Errorf("AllFigures table %d = %q, want %q", i, tb.ID, want[i])
		}
		if tb.String() != byID[want[i]] {
			t.Errorf("AllFigures %s differs from its experiment run alone", want[i])
		}
	}
}

// TestExperimentsList checks the list's shape: unique non-empty IDs, a
// generator per entry, and the paper's artifacts ahead of the extensions.
func TestExperimentsList(t *testing.T) {
	seen := make(map[string]bool)
	ext := false
	for _, e := range Experiments {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("incomplete entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if !e.InAll {
			ext = true
		} else if ext {
			t.Errorf("paper experiment %q listed after an extension", e.ID)
		}
	}
}
