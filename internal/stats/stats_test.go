package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Errorf("constant StdDev = %v", got)
	}
	// Population stddev of {1,3} is 1.
	if got := StdDev([]float64{1, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("StdDev = %v, want 1", got)
	}
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("single-sample StdDev = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {20, 1}, {95, 5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty Percentile = %v", got)
	}
	// The input must not be reordered.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v", min, max)
	}
	if min, max := MinMax(nil); min != 0 || max != 0 {
		t.Error("empty MinMax should be zeros")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestMeanBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		min, max := MinMax(xs)
		m := Mean(xs)
		return m >= min-1e-9 && m <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				t.Fatalf("Percentile not monotone at p=%v: %v < %v", p, v, prev)
			}
			prev = v
		}
	}
}

func TestTCritical95Tabulated(t *testing.T) {
	// Two-sided 95% Student-t critical values from standard tables.
	for _, c := range []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {4, 2.776}, {9, 2.262}, {29, 2.045},
		{30, 2.042}, {31, 2.040}, {40, 2.021}, {60, 2.000}, {120, 1.980}, {1000, 1.962},
	} {
		if got := tCritical95(c.df); !almostEqual(got, c.want, 5e-4) {
			t.Errorf("t(0.975, %d) = %.4f, want %.3f", c.df, got, c.want)
		}
	}
}

func TestMeanCI95(t *testing.T) {
	// {1..5}: mean 3, s = sqrt(2.5), t(0.975, 4) = 2.776445.
	mean, half, ok := MeanCI95([]float64{1, 2, 3, 4, 5})
	if !ok || mean != 3 || !almostEqual(half, 2.776445105*math.Sqrt(2.5)/math.Sqrt(5), 1e-9) {
		t.Errorf("MeanCI95({1..5}) = %v ± %v (ok %v), want 3 ± 1.9632", mean, half, ok)
	}
	// Two samples: the widest interval, t(0.975, 1) = 12.706.
	if _, half, ok := MeanCI95([]float64{0, 1}); !ok || !almostEqual(half, 12.706204736*math.Sqrt(0.5)/math.Sqrt(2), 1e-9) {
		t.Errorf("MeanCI95({0, 1}) half-width = %v (ok %v), want 6.3531", half, ok)
	}
	if mean, half, ok := MeanCI95([]float64{0.25, 0.25, 0.25}); !ok || mean != 0.25 || half != 0 {
		t.Errorf("constant input: %v ± %v (ok %v), want 0.25 ± 0", mean, half, ok)
	}
	for _, xs := range [][]float64{{7}, nil} {
		if mean, half, ok := MeanCI95(xs); ok || !math.IsNaN(half) || mean != Mean(xs) {
			t.Errorf("MeanCI95(%v) = %v ± %v (ok %v), want undefined interval", xs, mean, half, ok)
		}
	}
}
