package desim

import (
	"testing"

	"isomap/internal/core"
	"isomap/internal/field"
	"isomap/internal/network"
	"isomap/internal/routing"
)

func isoMapRound(t *testing.T, n int, seed int64) (*routing.Tree, []core.Report) {
	t.Helper()
	f := field.NewSeabed(field.DefaultSeabedConfig())
	nw, err := network.DeployUniform(n, f, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	nw.Sense(f)
	sink, err := nw.NearestNode(nw.Bounds().Centroid())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.NewTree(nw, sink)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewQuery(field.Levels{Low: 6, High: 12, Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	generated := core.DetectIsolineNodes(nw, q, nil)
	var routable []core.Report
	for _, r := range generated {
		if tree.Reachable(r.Source) {
			routable = append(routable, r)
		}
	}
	return tree, routable
}

func reportSet(reports []core.Report) map[core.Report]bool {
	s := make(map[core.Report]bool, len(reports))
	for _, r := range reports {
		s[r] = true
	}
	return s
}

func TestCollectMatchesStructuralUnfiltered(t *testing.T) {
	// THE validation: without filtering, the packet-level collection must
	// deliver exactly the reports the structural engine delivers.
	tree, reports := isoMapRound(t, 2500, 1)
	structural := core.DeliverReports(tree, reports, core.FilterConfig{Enabled: false}, nil)

	res, err := CollectReports(nil, tree, reports, core.FilterConfig{Enabled: false}, DefaultRadioConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Radio.Drops > 0 {
		t.Logf("note: %d frames dropped under contention", res.Radio.Drops)
	}
	want := reportSet(structural)
	got := reportSet(res.Delivered)
	for r := range want {
		if !got[r] {
			t.Fatalf("packet-level lost report %v (radio %+v)", r, res.Radio)
		}
	}
	for r := range got {
		if !want[r] {
			t.Fatalf("packet-level delivered report %v the structural engine did not", r)
		}
	}
	// Transport recovery re-queues link-layer drops, so the delivered
	// multiset is exactly the structural set.
	if len(res.Delivered) != len(structural) {
		t.Fatalf("delivered %d != structural %d (duplicates?)", len(res.Delivered), len(structural))
	}
	if res.CollectSeconds <= 0 {
		t.Error("zero completion time")
	}
	if res.Events <= 0 {
		t.Error("no events executed")
	}
}

func TestCollectFilteredStaysWithinGenerated(t *testing.T) {
	tree, reports := isoMapRound(t, 2500, 1)
	res, err := CollectReports(nil, tree, reports, core.DefaultFilterConfig(), DefaultRadioConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) == 0 {
		t.Fatal("nothing delivered")
	}
	if len(res.Delivered) > len(reports) {
		t.Fatalf("delivered %d > generated %d", len(res.Delivered), len(reports))
	}
	// Every delivered report was generated.
	gen := reportSet(reports)
	for _, r := range res.Delivered {
		if !gen[r] {
			t.Fatalf("delivered unknown report %v", r)
		}
	}
	// Arrival-order filtering approximates the structural post-order
	// result: same ballpark of survivors.
	structural := core.DeliverReports(tree, reports, core.DefaultFilterConfig(), nil)
	lo, hi := len(structural)/2, len(structural)*2
	if len(res.Delivered) < lo || len(res.Delivered) > hi {
		t.Errorf("packet-level filtered count %d far from structural %d", len(res.Delivered), len(structural))
	}
}

func TestCollectLatencyAboveAirtimeBound(t *testing.T) {
	tree, reports := isoMapRound(t, 900, 3)
	res, err := CollectReports(nil, tree, reports, core.FilterConfig{Enabled: false}, DefaultRadioConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: the sink's last-hop volume must at least be serialized
	// over the air one frame at a time.
	var sinkBytes int
	for _, r := range res.Delivered {
		_ = r
		sinkBytes += core.ReportBytes
	}
	cfg := DefaultRadioConfig()
	lower := float64(sinkBytes) * 8 / cfg.BitsPerSecond
	if res.CollectSeconds < lower {
		t.Errorf("completion %v below serialization bound %v", res.CollectSeconds, lower)
	}
}

func TestCollectChargesPhysicalCosts(t *testing.T) {
	tree, reports := isoMapRound(t, 900, 3)
	res, err := CollectReports(nil, tree, reports, core.FilterConfig{Enabled: false}, DefaultRadioConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Physical accounting (acks, retries) must exceed the structural
	// perfect-link charge for the same delivery.
	c := res.Counters
	if c == nil {
		t.Fatal("no counters")
	}
	structuralBytes := int64(0)
	for _, r := range reports {
		structuralBytes += int64(core.ReportBytes * tree.Level(r.Source))
	}
	if c.TotalTxBytes() <= structuralBytes/2 {
		t.Errorf("physical tx %d implausibly low vs structural %d", c.TotalTxBytes(), structuralBytes)
	}
}

func TestCollectNilTree(t *testing.T) {
	if _, err := CollectReports(nil, nil, nil, core.FilterConfig{}, DefaultRadioConfig()); err == nil {
		t.Error("want error for nil tree")
	}
}

func TestCollectEmptyReports(t *testing.T) {
	tree, _ := isoMapRound(t, 100, 2)
	res, err := CollectReports(nil, tree, nil, core.DefaultFilterConfig(), DefaultRadioConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 0 || res.CollectSeconds != 0 {
		t.Errorf("empty collection delivered %d in %v", len(res.Delivered), res.CollectSeconds)
	}
}
