package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isomap/internal/sim"
)

func TestDispatchUnknownKindLists(t *testing.T) {
	err := dispatch("bogus", options{})
	if err == nil {
		t.Fatal("dispatch(bogus) = nil error, want unknown-kind error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error %q does not name the offending kind", msg)
	}
	for _, name := range kindNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list valid kind %q", msg, name)
		}
	}
}

func TestKindRegistryComplete(t *testing.T) {
	want := []string{"faults", "temporal"}
	got := kindNames()
	if len(got) != len(want) {
		t.Fatalf("kindNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("kind %d = %q, want %q", i, got[i], want[i])
		}
	}
	for _, k := range kinds {
		if k.run == nil {
			t.Errorf("kind %q has no runner", k.name)
		}
		if k.doc == "" {
			t.Errorf("kind %q has no doc line", k.name)
		}
	}
}

// TestFaultsSmokeSchema runs the CI fault cell end to end through the
// registry and checks the emitted JSON parses back as the smoke cell
// with populated delivery, overhead and fidelity metrics.
func TestFaultsSmokeSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted packet rounds")
	}
	out := filepath.Join(t.TempDir(), "faults.json")
	if err := dispatch("faults", options{out: out, runs: 3, smoke: true, parallel: 2}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep faultsReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 1 || rep.Nodes != 400 || len(rep.Results) != 1 {
		t.Fatalf("smoke report shape: runs=%d nodes=%d results=%d", rep.Runs, rep.Nodes, len(rep.Results))
	}
	res := rep.Results[0]
	if res.FaultPoint != sim.SmokeFaultPoints()[0] {
		t.Errorf("smoke cell %+v, want %+v", res.FaultPoint, sim.SmokeFaultPoints()[0])
	}
	if res.DeliveryRatio <= 0 || res.DeliveryRatio > 1 {
		t.Errorf("delivery ratio %v outside (0, 1]", res.DeliveryRatio)
	}
	if res.RetriesPerFrame <= 0 || res.EnergyFactor <= 1 {
		t.Errorf("a lossy cell paid no retry/energy overhead: %+v", res)
	}
	if res.Crashed <= 0 || res.Misclassification < 0 {
		t.Errorf("crash/fidelity metrics: %+v", res)
	}
}
