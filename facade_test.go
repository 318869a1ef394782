package isomap_test

import (
	"strings"
	"testing"

	"isomap"
)

func TestFacadeFieldConstructors(t *testing.T) {
	cfg := isomap.DefaultSeabedConfig()
	cfg.Seed = 5
	f := isomap.NewSeabed(cfg)
	x0, y0, x1, y1 := f.Bounds()
	if x1-x0 != 50 || y1-y0 != 50 {
		t.Errorf("bounds = %v %v %v %v", x0, y0, x1, y1)
	}
	if v := f.Value(25, 25); v <= 0 {
		t.Errorf("Value = %v", v)
	}
	// Silting leaves the route untouched at t=0 and shallows it later.
	silt := isomap.DefaultSilting(f)
	if v := silt.At(0).Value(25, 25); v != f.Value(25, 25) {
		t.Errorf("silting at t=0 changed depth: %v -> %v", f.Value(25, 25), v)
	}
	if v := silt.At(8).Value(25, 25); v >= f.Value(25, 25) {
		t.Errorf("silting at t=8 did not shallow the route: %v -> %v", f.Value(25, 25), v)
	}
}

func TestFacadeQueryEpsilon(t *testing.T) {
	q, err := isomap.NewQueryEpsilon(isomap.Levels{Low: 6, High: 12, Step: 2}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if q.Epsilon != 0.4 {
		t.Errorf("Epsilon = %v", q.Epsilon)
	}
	if _, err := isomap.NewQueryEpsilon(isomap.Levels{}, 0.4); err == nil {
		t.Error("want error for empty levels")
	}
}

func TestFacadeRendering(t *testing.T) {
	f := isomap.DefaultSeabed()
	levels := isomap.Levels{Low: 6, High: 12, Step: 2}
	ra := isomap.TruthRaster(f, levels, 12, 12)
	art := isomap.RenderASCII(ra)
	if len(strings.Split(strings.TrimRight(art, "\n"), "\n")) != 12 {
		t.Errorf("ASCII render has wrong height:\n%s", art)
	}
	side := isomap.RenderSideBySide(ra, ra, "L", "R")
	if !strings.Contains(side, "L") || !strings.Contains(side, " | ") {
		t.Error("side-by-side render malformed")
	}
}

func TestFacadeRegions(t *testing.T) {
	f := isomap.DefaultSeabed()
	levels := isomap.Levels{Low: 6, High: 12, Step: 2}
	ra := isomap.TruthRaster(f, levels, 64, 64)

	alarm := isomap.RegionsBelow(ra, 1)
	deep := isomap.RegionsAtLeast(ra, 3)
	custom := isomap.Regions(ra, func(class int) bool { return class == 2 })
	if len(deep) == 0 || len(custom) == 0 {
		t.Errorf("regions: alarm=%d deep=%d custom=%d", len(alarm), len(deep), len(custom))
	}
	changes := isomap.TrackRegions(deep, deep)
	for _, ch := range changes {
		if ch.Kind.String() != "stable" {
			t.Errorf("self-tracking produced %v", ch.Kind)
		}
	}
}

func TestFacadeNoFilter(t *testing.T) {
	fc := isomap.NoFilter()
	if fc.Enabled {
		t.Error("NoFilter should be disabled")
	}
}

func TestFacadeNewTreeExplicitSink(t *testing.T) {
	f := isomap.DefaultSeabed()
	nw, err := isomap.DeployGrid(100, f, 10)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := isomap.NewTree(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root() != 0 {
		t.Errorf("Root = %d", tree.Root())
	}
}

func TestFacadeRunEdgeBased(t *testing.T) {
	f := isomap.DefaultSeabed()
	nw, err := isomap.DeployUniform(900, f, 2.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := isomap.NewTreeAtCenter(nw)
	if err != nil {
		t.Fatal(err)
	}
	q, err := isomap.NewQuery(isomap.Levels{Low: 6, High: 12, Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := isomap.RunEdgeBased(tree, f, q, isomap.DefaultFilter())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("edge-based round delivered nothing")
	}
	m := isomap.Reconstruct(res.Reports, q.Levels, f, res.SinkValue)
	truth := isomap.TruthRaster(f, q.Levels, 64, 64)
	if acc := isomap.Accuracy(truth, m.Raster(64, 64)); acc < 0.75 {
		t.Errorf("edge-based accuracy = %v", acc)
	}
}

func TestFacadeConfusion(t *testing.T) {
	f := isomap.DefaultSeabed()
	levels := isomap.Levels{Low: 6, High: 12, Step: 2}
	m, _, err := isomap.MapField(f, 2500, 1.5, 1, levels)
	if err != nil {
		t.Fatal(err)
	}
	truth := isomap.TruthRaster(f, levels, 96, 96)
	conf := isomap.NewConfusion(truth, m.Raster(96, 96))
	if conf == nil {
		t.Fatal("nil confusion")
	}
	if acc := conf.Accuracy(); acc < 0.8 {
		t.Errorf("confusion accuracy = %v", acc)
	}
	// Iso-Map's errors are dominated by boundary displacement: mostly
	// off-by-one band confusions.
	if obo := conf.OffByOne(); obo < 0.8 {
		t.Errorf("off-by-one share = %v — errors should be boundary slip", obo)
	}
}
