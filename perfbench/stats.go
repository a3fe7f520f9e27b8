package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to be reported at all: a tail figure resting on fewer is noise.
const minBeyond = 10

// tailCandidates are the percentiles tailPercentile chooses from, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples strictly above its nearest-rank position
// (50 when even the median does not).
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(n, p/100) >= minBeyond {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank position of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9)) // 0.999*10000 is 9990.000000000002
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile (q in [0, 1]) of xs,
// which it sorts in place; NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// median is the interpolated middle of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
