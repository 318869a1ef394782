package sim

import (
	"strings"
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
)

// render concatenates every table of a figure set the way cmd/experiments
// prints them, so byte-level comparison matches the CLI contract.
func render(tables []*Table) string {
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestAllFiguresParallelDeterministic is the tentpole guarantee: the full
// figure set renders byte-identically whether the sweep cells run on one
// worker or race across eight.
func TestAllFiguresParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set in -short mode")
	}
	seq, err := NewRunner(1).AllFigures(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(8).AllFigures(1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := render(seq), render(par)
	if a != b {
		t.Errorf("parallel output differs from sequential:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s", a, b)
	}
}

// TestWithDefaultsNonSquareTrace is the regression test for the density
// default assuming a square field: a 40x10 trace has area 400, so 400
// nodes are density 1 and the default radio must be 1.5 — the old
// Nodes/FieldSide^2 formula saw density 0.25 and picked 3.0.
func TestWithDefaultsNonSquareTrace(t *testing.T) {
	vals := [][]float64{{6, 8, 10, 12}, {6, 8, 10, 12}}
	trace, err := field.NewGridField(vals, 0, 0, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{Nodes: 400, Trace: trace}.withDefaults()
	if s.FieldSide != 40 {
		t.Errorf("FieldSide = %v, want 40 (trace x extent)", s.FieldSide)
	}
	if s.Radio != 1.5 {
		t.Errorf("Radio = %v, want 1.5 (density 1 over the true 40x10 area)", s.Radio)
	}

	env, err := testRunner.Build(Scenario{Nodes: 400, Trace: trace, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := env.nodeSpacing(); got != 1 {
		t.Errorf("nodeSpacing = %v, want 1 (sqrt(400 area / 400 nodes))", got)
	}
}

// TestExplicitZeroEpsilon checks the zero-value sentinel fix: an explicit
// Epsilon of 0 marked with EpsilonSet must reach query validation (which
// rejects it) instead of being silently replaced by the default.
func TestExplicitZeroEpsilon(t *testing.T) {
	if s := (Scenario{}).withDefaults(); s.Epsilon != 0.1 {
		t.Errorf("implicit epsilon = %v, want default 0.1", s.Epsilon)
	}
	if s := (Scenario{Epsilon: 0, EpsilonSet: true}).withDefaults(); s.Epsilon != 0 {
		t.Errorf("explicit zero epsilon rewritten to %v", s.Epsilon)
	}
	if _, err := testRunner.Build(Scenario{Nodes: 100, FieldSide: 10, Seed: 1, EpsilonSet: true}); err == nil {
		t.Error("explicit zero epsilon should fail query validation, got nil error")
	}
}

// TestExplicitFilterDisabled checks the companion sentinel: an explicit
// disabled filter config survives defaulting.
func TestExplicitFilterDisabled(t *testing.T) {
	s := Scenario{Filter: &core.FilterConfig{Enabled: false}}.withDefaults()
	if s.Filter.Enabled {
		t.Error("explicit Enabled:false filter was re-enabled by defaulting")
	}
	if s := (Scenario{}).withDefaults(); !s.Filter.Enabled {
		t.Error("implicit filter should default to enabled")
	}
}

// TestEnvRunOrderIndependence pins the Env reuse contract: because every
// Run* re-senses the field, a protocol's stats do not depend on what ran
// before it on the same Env.
func TestEnvRunOrderIndependence(t *testing.T) {
	scn := Scenario{Nodes: 400, FieldSide: 20, Grid: true, Seed: 3}
	a, err := testRunner.Build(scn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testRunner.Build(scn)
	if err != nil {
		t.Fatal(err)
	}

	isoFirst, _, err := a.RunIsoMap()
	if err != nil {
		t.Fatal(err)
	}
	tdbSecond, _, err := a.RunTinyDB()
	if err != nil {
		t.Fatal(err)
	}

	tdbFirst, _, err := b.RunTinyDB()
	if err != nil {
		t.Fatal(err)
	}
	isoSecond, _, err := b.RunIsoMap()
	if err != nil {
		t.Fatal(err)
	}

	if isoFirst != isoSecond {
		t.Errorf("Iso-Map stats depend on run order:\nfirst:  %+v\nsecond: %+v", isoFirst, isoSecond)
	}
	if tdbFirst != tdbSecond {
		t.Errorf("TinyDB stats depend on run order:\nfirst:  %+v\nsecond: %+v", tdbFirst, tdbSecond)
	}
}

// TestBuildClonesAreIsolated checks that two Envs built from the same
// cached deployment do not share mutable node state, while still sharing
// the immutable field and placement.
func TestBuildClonesAreIsolated(t *testing.T) {
	r := NewRunner(2)
	scn := Scenario{Nodes: 100, FieldSide: 10, Seed: 5}
	a, err := r.Build(scn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Build(scn)
	if err != nil {
		t.Fatal(err)
	}
	if a.Network == b.Network {
		t.Fatal("Build returned the same Network twice")
	}
	if a.Field != b.Field {
		t.Error("clones should share the cached field instance")
	}
	if a.Tree.Root() != b.Tree.Root() {
		t.Errorf("sinks differ: %v vs %v", a.Tree.Root(), b.Tree.Root())
	}

	a.Network.Node(0).Value = 12345
	a.Network.Node(0).Failed = true
	if b.Network.Node(0).Value == 12345 || b.Network.Node(0).Failed {
		t.Error("mutating one clone leaked into its sibling")
	}
}

// TestSweepAverageDeterministic checks the flattened cell indexing and the
// n/a skipping of the shared sweep helper.
func TestSweepAverageDeterministic(t *testing.T) {
	r := NewRunner(4)
	rows, err := sweepAverage(r, 2, 3, func(p int, seed int64) ([]float64, error) {
		if p == 1 && seed == 2 {
			return []float64{-1, float64(seed)}, nil // n/a first element
		}
		return []float64{float64(p*10) + float64(seed), float64(seed)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows[0][0], 2.0; got != want { // (1+2+3)/3
		t.Errorf("rows[0][0] = %v, want %v", got, want)
	}
	if got, want := rows[1][0], 12.0; got != want { // (11+13)/2, seed 2 skipped
		t.Errorf("rows[1][0] = %v, want %v", got, want)
	}
	if got, want := rows[1][1], 2.0; got != want { // (1+2+3)/3
		t.Errorf("rows[1][1] = %v, want %v", got, want)
	}
}

// TestAverageVecsAllMissing checks the -1 sentinel when no sample is valid.
func TestAverageVecsAllMissing(t *testing.T) {
	got := averageVecs([][]float64{{-1, 4}, {-1, 6}})
	if got[0] != -1 || got[1] != 5 {
		t.Errorf("averageVecs = %v, want [-1 5]", got)
	}
}
