package sim

import (
	"math"
	"reflect"
	"testing"
)

// TestExtFaultSweepSmoke runs the CI smoke cell — one lossy, bursty,
// crashing round — and checks the acceptance properties: the sweep
// completes, delivery degrades below 1, and every fidelity metric is
// finite.
func TestExtFaultSweepSmoke(t *testing.T) {
	results, err := NewRunner(2).ExtFaultSweepResults(1, SmokeFaultPoints())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	res := results[0]
	if res.DeliveryRatio <= 0 || res.DeliveryRatio >= 1 {
		t.Errorf("delivery ratio %g, want in (0, 1) under loss 0.2 + crashes", res.DeliveryRatio)
	}
	if res.Crashed == 0 {
		t.Error("no node crashed at fraction 0.05")
	}
	if res.MisclassificationHalfWidth != -1 {
		t.Errorf("one seed gave a misclassification interval of ±%g, want -1 (undefined)", res.MisclassificationHalfWidth)
	}
	for _, v := range []float64{
		res.DeliveryRatio, res.RetriesPerFrame, res.ReportDrops, res.Crashed,
		res.Repairs, res.Severed, res.EnergyFactor, res.Misclassification,
		res.MeanHausdorff,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("non-finite metric in %+v", res)
			break
		}
	}
}

// TestExtFaultSweepFaultFreePointMatchesBaseline checks that the sweep's
// control point — all fault knobs zero — scores exactly no degradation:
// its plan must leave the round bit-identical to the baseline round.
func TestExtFaultSweepFaultFreePointMatchesBaseline(t *testing.T) {
	results, err := NewRunner(2).ExtFaultSweepResults(1, []FaultPoint{{}})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.DeliveryRatio != 1 {
		t.Errorf("fault-free delivery ratio %g, want exactly 1", res.DeliveryRatio)
	}
	if res.EnergyFactor != 1 {
		t.Errorf("fault-free energy factor %g, want exactly 1", res.EnergyFactor)
	}
	if res.Misclassification != 0 {
		t.Errorf("fault-free misclassification %g, want exactly 0", res.Misclassification)
	}
	if res.MeanHausdorff != 0 {
		t.Errorf("fault-free Hausdorff %g, want exactly 0", res.MeanHausdorff)
	}
	if res.Crashed != 0 || res.Repairs != 0 || res.Severed != 0 {
		t.Errorf("fault-free point reported crash activity: %+v", res)
	}
}

// TestExtFaultSweepDeterministicAcrossWidths checks the reproducibility
// acceptance criterion: the sweep's output is identical at any worker
// pool width and across repeated runs.
func TestExtFaultSweepDeterministicAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-width sweep in -short mode")
	}
	points := []FaultPoint{{Loss: 0.3, Burst: 0.6, Crash: 0.1}}
	var ref []FaultPointResult
	for _, width := range []int{1, 4} {
		results, err := NewRunner(width).ExtFaultSweepResults(2, points)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			if h := results[0].MisclassificationHalfWidth; !(h >= 0) || math.IsInf(h, 0) {
				t.Fatalf("two seeds gave misclassification half-width %g, want finite and >= 0", h)
			}
			ref = results
			continue
		}
		if !reflect.DeepEqual(ref, results) {
			t.Fatalf("width %d diverged:\n ref: %+v\n got: %+v", width, ref, results)
		}
	}
}
