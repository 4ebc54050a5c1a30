package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p ≤ 100)
// of sorted: the smallest sample with at least p% of the samples at or
// below it. The serving stack's own histograms have 8%-wide buckets;
// gating on them would quantize a 10% bound into one or two steps, so
// the benchmark keeps every sample and sorts.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is ⌈p% of n⌉. The epsilon absorbs binary rounding: 99.9% of
// 10000 is 9990, not the 9990.000000000002 the division yields.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// median sorts a copy of xs and returns its 50th percentile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentiles are the candidates of tailPercentile, ascending.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it in a sample of n — the highest tail a
// sample of that size supports. Below 20 samples not even the median
// qualifies and it returns 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first, second and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), which is how the acceptance procedure measures
// run-to-run spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
