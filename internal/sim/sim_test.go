package sim

import (
	"strings"
	"testing"
)

func TestBuildDefaults(t *testing.T) {
	env, err := testRunner.Build(Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if env.Network.Len() != 2500 {
		t.Errorf("default nodes = %d, want 2500", env.Network.Len())
	}
	if env.Scenario.Radio != 1.5 {
		t.Errorf("default radio = %v, want 1.5", env.Scenario.Radio)
	}
	if env.Query.Epsilon != 0.1 {
		t.Errorf("default epsilon = %v, want 0.1", env.Query.Epsilon)
	}
	if !env.Scenario.Regulate {
		t.Error("regulation should default on")
	}
	// Connectivity: nearly all nodes routable.
	if env.Tree.ReachableCount() < 2400 {
		t.Errorf("reachable = %d of 2500", env.Tree.ReachableCount())
	}
}

func TestBuildRadioScalesWithDensity(t *testing.T) {
	env, err := testRunner.Build(Scenario{Nodes: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Density 0.16 => radio 1.5/0.4 = 3.75.
	if got := env.Scenario.Radio; got < 3.74 || got > 3.76 {
		t.Errorf("radio = %v, want 3.75", got)
	}
	if env.Tree.ReachableCount() < 380 {
		t.Errorf("sparse deployment disconnected: %d of 400", env.Tree.ReachableCount())
	}
}

func TestBuildGrid(t *testing.T) {
	env, err := testRunner.Build(Scenario{Grid: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if env.Network.Len() != 2500 {
		t.Errorf("grid nodes = %d", env.Network.Len())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := testRunner.Build(Scenario{Nodes: -5}); err == nil {
		t.Error("want error for negative node count")
	}
}

func TestRunAllProtocolsOnce(t *testing.T) {
	gridEnv, err := testRunner.Build(Scenario{Nodes: 900, FieldSide: 30, Grid: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	randEnv, err := testRunner.Build(Scenario{Nodes: 900, FieldSide: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	iso, m, err := randEnv.RunIsoMap()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || iso.Protocol != "Iso-Map" {
		t.Fatal("bad Iso-Map result")
	}
	tdb, res, err := gridEnv.RunTinyDB()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || tdb.Protocol != "TinyDB" {
		t.Fatal("bad TinyDB result")
	}
	inl, err := gridEnv.RunINLR()
	if err != nil {
		t.Fatal(err)
	}
	esc, err := randEnv.RunEScan()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := gridEnv.RunSuppress()
	if err != nil {
		t.Fatal(err)
	}

	// Headline orderings of the paper:
	// 1. Iso-Map generates far fewer reports than the all-nodes-report
	// protocols; data suppression reduces generation by the (constant)
	// 2-hop degree factor, so at this scale only a strict ordering holds.
	for _, other := range []Stats{tdb, inl, esc} {
		if iso.Generated*2 >= other.Generated {
			t.Errorf("Iso-Map generated %d vs %s %d — should be far fewer",
				iso.Generated, other.Protocol, other.Generated)
		}
	}
	if iso.Generated >= sup.Generated {
		t.Errorf("Iso-Map generated %d vs Suppression %d — should be fewer",
			iso.Generated, sup.Generated)
	}
	// 2. Iso-Map's traffic is the lowest of the Fig. 14 trio.
	if iso.TrafficKB >= tdb.TrafficKB || iso.TrafficKB >= inl.TrafficKB {
		t.Errorf("Iso-Map traffic %v KB not below TinyDB %v / INLR %v",
			iso.TrafficKB, tdb.TrafficKB, inl.TrafficKB)
	}
	// 3. INLR computation dominates TinyDB and Iso-Map (Fig. 15a).
	if inl.MeanOps <= tdb.MeanOps || inl.MeanOps <= iso.MeanOps {
		t.Errorf("INLR ops %v not above TinyDB %v / Iso-Map %v",
			inl.MeanOps, tdb.MeanOps, iso.MeanOps)
	}
	// 4. Iso-Map's per-node energy is the lowest (Fig. 16).
	if iso.MeanEnergyJ >= tdb.MeanEnergyJ || iso.MeanEnergyJ >= inl.MeanEnergyJ {
		t.Errorf("Iso-Map energy %v not below TinyDB %v / INLR %v",
			iso.MeanEnergyJ, tdb.MeanEnergyJ, inl.MeanEnergyJ)
	}
	// 5. Both mapping protocols produce usable maps.
	if iso.Accuracy < 0.7 || tdb.Accuracy < 0.7 {
		t.Errorf("accuracies too low: iso %v tinydb %v", iso.Accuracy, tdb.Accuracy)
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow(1.5, "zz")
	tb.AddRow(-1.0, 7)
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "1.5") {
		t.Errorf("render missing content:\n%s", s)
	}
	if !strings.Contains(s, "-") {
		t.Error("-1 sentinel should render as '-'")
	}
}
