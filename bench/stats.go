package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p % of the samples
// at or below it. It is always one of the samples, so a percentile that
// sits on the boundary between two cost classes shows up as a two-valued
// result and not as a blend. Returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// samplesBeyond counts the samples strictly above the p-th percentile's
// rank: how many observations the percentile has behind it.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// median returns the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive): the driver judges
// run-to-run spread with that function, so the self-check uses the same.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}
