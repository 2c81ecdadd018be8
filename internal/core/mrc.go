package core

import (
	"math"
	"sort"
)

// Miss-ratio-curve estimation (paper §2.4 references the Miss Ratio Curve
// MR = f(CR); §5.2 uses it to find the optimal cache ratio). This file
// implements Mattson's stack-distance algorithm with a Fenwick tree
// (O(n log n)) over a key-access trace, producing an empirical MRC that
// plugs straight into OptimalCacheRatio.

// fenwick is a binary indexed tree over access positions.
type fenwick struct{ t []int }

func newFenwick(n int) *fenwick { return &fenwick{t: make([]int, n+1)} }

func (f *fenwick) add(i, d int) {
	for i++; i < len(f.t); i += i & (-i) {
		f.t[i] += d
	}
}

// sum returns the prefix sum over [0, i].
func (f *fenwick) sum(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.t[i]
	}
	return s
}

// StackDistances computes, for each access in the trace, its LRU stack
// distance: the number of distinct keys referenced since the previous
// access to the same key. Cold (first) accesses get distance -1.
func StackDistances(trace []string) []int {
	n := len(trace)
	bit := newFenwick(n)
	last := make(map[string]int, n/4+1)
	out := make([]int, n)
	for i, key := range trace {
		if prev, ok := last[key]; ok {
			// Distinct keys touched in (prev, i) = marks in that window.
			out[i] = bit.sum(i-1) - bit.sum(prev)
			bit.add(prev, -1) // key's marker moves to position i
		} else {
			out[i] = -1
		}
		bit.add(i, 1)
		last[key] = i
	}
	return out
}

// EmpiricalMRC is a measured miss-ratio curve over cache sizes expressed
// as a fraction of the distinct key population.
type EmpiricalMRC struct {
	// distances holds sorted non-cold stack distances.
	distances []int
	accesses  int
	cold      int
	distinct  int
}

// BuildMRC computes the empirical MRC of a key trace.
func BuildMRC(trace []string) *EmpiricalMRC {
	dists := StackDistances(trace)
	uniq := make(map[string]struct{}, len(trace)/4+1)
	for _, k := range trace {
		uniq[k] = struct{}{}
	}
	m := &EmpiricalMRC{accesses: len(trace), distinct: len(uniq)}
	for _, d := range dists {
		if d < 0 {
			m.cold++
		} else {
			m.distances = append(m.distances, d)
		}
	}
	sort.Ints(m.distances)
	return m
}

// MissRatioAtKeys returns the LRU miss ratio with capacity for c keys.
// Cold misses always count.
func (m *EmpiricalMRC) MissRatioAtKeys(c int) float64 {
	if m.accesses == 0 {
		return 0
	}
	// Misses = cold + accesses whose stack distance >= c.
	idx := sort.SearchInts(m.distances, c)
	warmMisses := len(m.distances) - idx
	return float64(m.cold+warmMisses) / float64(m.accesses)
}

// Curve returns f(CR) with CR = cacheKeys/distinctKeys, clamped to [0,1].
// The cold-miss floor is removed when steady is true, modeling steady-state
// behavior where the population has been seen at least once.
func (m *EmpiricalMRC) Curve(steady bool) MRC {
	return func(cr float64) float64 {
		if m.accesses == 0 || m.distinct == 0 {
			return 0
		}
		if cr < 0 {
			cr = 0
		}
		if cr > 1 {
			cr = 1
		}
		c := int(math.Round(cr * float64(m.distinct)))
		mr := m.MissRatioAtKeys(c)
		if steady {
			coldMR := float64(m.cold) / float64(m.accesses)
			warmAccesses := float64(m.accesses - m.cold)
			if warmAccesses <= 0 {
				return 0
			}
			mr = (mr*float64(m.accesses) - coldMR*float64(m.accesses)) / warmAccesses
			if mr < 0 {
				mr = 0
			}
		}
		return mr
	}
}

// ZipfMRC returns an analytic miss-ratio curve for a zipfian workload with
// skew theta over n items: the hit ratio of caching the top c items equals
// the probability mass of ranks 1..c. Used when no trace is available.
func ZipfMRC(n int64, theta float64) MRC {
	if n < 1 {
		n = 1
	}
	// Precompute normalized cumulative mass at log-spaced points.
	var total float64
	for i := int64(1); i <= n; i++ {
		total += 1 / math.Pow(float64(i), theta)
	}
	// cum[i] = mass of top (i+1) ranks (sampled; interpolate between).
	samples := 512
	if int64(samples) > n {
		samples = int(n)
	}
	cumAt := make([]float64, samples+1)
	ranksAt := make([]int64, samples+1)
	var cum float64
	next := 0
	for i := int64(1); i <= n; i++ {
		cum += 1 / math.Pow(float64(i), theta)
		for next <= samples && i >= int64(math.Round(float64(next)/float64(samples)*float64(n))) {
			cumAt[next] = cum / total
			ranksAt[next] = i
			next++
		}
	}
	for next <= samples {
		cumAt[next] = 1
		ranksAt[next] = n
		next++
	}
	_ = ranksAt
	return func(cr float64) float64 {
		if cr <= 0 {
			return 1
		}
		if cr >= 1 {
			return 0
		}
		pos := cr * float64(samples)
		lo := int(pos)
		frac := pos - float64(lo)
		hit := cumAt[lo]
		if lo+1 <= samples {
			hit += frac * (cumAt[lo+1] - cumAt[lo])
		}
		return 1 - hit
	}
}
