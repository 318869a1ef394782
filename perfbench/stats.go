package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the convention of numpy's default); 0 when xs is empty,
// as for a layer the workload does not run.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pct returns 100*num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// supports reports whether the q-quantile of n samples has at least ten
// samples beyond it, the least a tail percentile may rest on.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 1-0.9 is a hair under 0.1 in floating point

}
