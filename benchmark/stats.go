package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the sample at or
// below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median sorts vals in place and returns the middle value (mean of the two
// middle values for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// medianOfWindows splits the samples into windows equal spans of [0, span)
// by at, takes the p-th percentile of val inside each window, and returns
// the median of those per-window percentiles. A tail taken this way repeats
// from run to run; one stall lands in one window and moves the median of
// windows little, where it would own the p99 of the pooled sample.
func medianOfWindows(at, val []float64, span float64, windows int, p float64) float64 {
	buckets := make([][]float64, windows)
	for i, t := range at {
		w := int(t / span * float64(windows))
		if w < 0 || w >= windows {
			continue
		}
		buckets[w] = append(buckets[w], val[i])
	}
	per := make([]float64, 0, windows)
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		per = append(per, percentile(b, p))
	}
	return median(per)
}

// quartiles returns the first and third quartile of vals by the exclusive
// method, the default of Python's statistics.quantiles(vals, n=4), which is
// what the driver computes spreads with. It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
