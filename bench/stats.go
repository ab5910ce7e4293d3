package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: with fewer, the value is one outlier's latency, not the
// distribution's. A percentile that misses the rule is omitted, never
// interpolated.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count), NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the exact nearest-rank p-th percentile (0 < p < 1)
// of the raw samples. ok is false — and the value must not be reported —
// when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return s[idx], n-1-idx >= minBeyond
}

// quartileSpread is the acceptance statistic the benchmark's bounds are
// judged with: the distance between the first and third quartile as a
// share of the median, quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them (exclusive method). NaN
// for fewer than two samples.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := sorted(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// sum adds the samples.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
