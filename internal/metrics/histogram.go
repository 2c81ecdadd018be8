// Package metrics provides lightweight, allocation-free measurement
// primitives used throughout TierBase: a log-bucketed latency histogram,
// throughput meters and a running-maximum gauge. It backs the Monitor
// component of the architecture (paper §3) and the measurement side of the
// cost-optimization framework (paper §5.3).
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// histogram layout: buckets are arranged in groups of subBuckets buckets;
// group g covers values [2^g * subBuckets, 2^(g+1) * subBuckets) with linear
// sub-bucketing inside the group. This mirrors HdrHistogram's layout and
// keeps relative error below 1/subBuckets.
const (
	subBucketBits = 5 // 32 sub-buckets per power-of-two group: <= ~3.1% error
	subBuckets    = 1 << subBucketBits
	numGroups     = 40 // covers values up to ~2^45; plenty for ns latencies
	totalBuckets  = subBuckets * (numGroups + 1)
)

// Histogram is a concurrent log-bucketed histogram of int64 values
// (typically latencies in nanoseconds). The zero value is NOT usable;
// call NewHistogram.
type Histogram struct {
	counts [totalBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// group = floor(log2(v)) - subBucketBits + 1, so that group g >= 1
	// covers [subBuckets << (g-1), subBuckets << g) with subBuckets linear
	// sub-buckets of width 1 << (g-1).
	group := 63 - subBucketBits - bits.LeadingZeros64(uint64(v)) + 1
	if group > numGroups {
		group = numGroups
	}
	sub := (v >> uint(group-1)) - subBuckets // in [0, subBuckets)
	idx := group*subBuckets + int(sub)
	if idx >= totalBuckets {
		idx = totalBuckets - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// bucketLow returns the lowest value contained in bucket idx.
func bucketLow(idx int) int64 {
	group := idx / subBuckets
	sub := int64(idx % subBuckets)
	if group == 0 {
		return sub
	}
	return (sub + subBuckets) << uint(group-1)
}

// Record adds a single observation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration records a time.Duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the arithmetic mean of recorded values, 0 if empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest recorded value, 0 if empty.
func (h *Histogram) Min() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest recorded value, 0 if empty.
func (h *Histogram) Max() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// valueAt returns a representative value (midpoint) for bucket idx.
func valueAt(idx int) int64 {
	group := idx / subBuckets
	sub := int64(idx % subBuckets)
	var low, width int64
	if group == 0 {
		low = sub
		width = 1
	} else {
		shift := uint(group - 1)
		low = (sub + subBuckets) << shift
		width = 1 << shift
	}
	return low + width/2
}

// Quantile returns an approximation of the q-quantile (q in [0,1]).
func (h *Histogram) Quantile(q float64) int64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < totalBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= target {
			v := valueAt(i)
			if v > h.Max() {
				return h.Max()
			}
			return v
		}
	}
	return h.Max()
}

// P50, P99, P999 are convenience quantile accessors.
func (h *Histogram) P50() int64  { return h.Quantile(0.50) }
func (h *Histogram) P99() int64  { return h.Quantile(0.99) }
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// Reset clears all recorded values.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
}

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := 0; i < totalBuckets; i++ {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	if other.total.Load() > 0 {
		om, oM := other.min.Load(), other.max.Load()
		for {
			cur := h.min.Load()
			if om >= cur || h.min.CompareAndSwap(cur, om) {
				break
			}
		}
		for {
			cur := h.max.Load()
			if oM <= cur || h.max.CompareAndSwap(cur, oM) {
				break
			}
		}
	}
}

// --- exact small-sample percentile helper (used by tests & calibration) ---

// ExactQuantile computes the exact q-quantile of values (nearest-rank).
// It sorts a copy; intended for small calibration samples, not hot paths.
func ExactQuantile(values []int64, q float64) int64 {
	if len(values) == 0 {
		return 0
	}
	cp := make([]int64, len(values))
	copy(cp, values)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(q*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}
