// Package metrics provides lightweight, allocation-free measurement
// primitives used throughout TierBase: a log-bucketed latency histogram
// and a running-maximum gauge. It backs the Monitor component of the
// architecture (paper §3) and the measurement side of the
// cost-optimization framework (paper §5.3).
package metrics

import (
	"math"
	"math/bits"
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
// (typically latencies in nanoseconds). The zero value is an empty
// histogram.
type Histogram struct {
	counts [totalBuckets]atomic.Int64
	total  atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

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

// Record adds a single observation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration records a time.Duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.total.Load() }

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

// P99 is Quantile(0.99).
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }
