// Package stats provides the small statistical helpers the experiment
// harness reports with: means, standard deviations, percentiles and
// confidence intervals over float samples.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation, or 0 for fewer than
// two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0-100) by nearest-rank on a
// copy of the sample; 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}

// MinMax returns the extremes of the sample; zeros for an empty one.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
}

// Summarize computes a Summary of the sample.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    min,
		Max:    max,
		P50:    Percentile(xs, 50),
		P95:    Percentile(xs, 95),
	}
}

// t975 holds the two-sided 95% Student-t critical values t(0.975, df)
// for df = 1..30; t975[0] is unused.
var t975 = [...]float64{0,
	12.706204736, 4.302652730, 3.182446305, 2.776445105, 2.570581836,
	2.446911851, 2.364624252, 2.306004135, 2.262157163, 2.228138852,
	2.200985160, 2.178812830, 2.160368656, 2.144786688, 2.131449546,
	2.119905299, 2.109815578, 2.100922040, 2.093024054, 2.085963447,
	2.079613845, 2.073873068, 2.068657610, 2.063898562, 2.059538553,
	2.055529439, 2.051830516, 2.048407142, 2.045229642, 2.042272456,
}

// tCritical95 returns t(0.975, df) for df >= 1: tabulated up to 30, and
// past it the Cornish-Fisher expansion around the normal quantile, which
// is within 1e-6 of the exact value there.
func tCritical95(df int) float64 {
	if df < len(t975) {
		return t975[df]
	}
	const z = 1.959963984540054
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	v := float64(df)
	return z + (g1+(g2+(g3+g4/v)/v)/v)/v
}

// MeanCI95 returns the sample mean and the half-width of its two-sided
// 95% Student-t confidence interval, mean ± half, from the unbiased
// (n-1) standard deviation. The interval needs n >= 2: for fewer samples
// ok is false and half is NaN.
func MeanCI95(xs []float64) (mean, half float64, ok bool) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, math.NaN(), false
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return mean, tCritical95(n-1) * sd / math.Sqrt(float64(n)), true
}
