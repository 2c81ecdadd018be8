package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram should report zeros: count=%d mean=%v min=%d max=%d", h.Count(), h.Mean(), h.Min(), h.Max())
	}
	if h.Quantile(0.99) != 0 {
		t.Fatalf("empty quantile should be 0")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(1234)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.Min() != 1234 || h.Max() != 1234 {
		t.Fatalf("min/max = %d/%d, want 1234/1234", h.Min(), h.Max())
	}
	q := h.Quantile(0.5)
	if relErr(q, 1234) > 0.05 {
		t.Fatalf("p50 = %d, want ~1234", q)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative values should clamp to 0, min=%d", h.Min())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	values := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// lognormal-ish latency distribution between ~1us and ~10ms
		v := int64(1000 * (1 + rng.ExpFloat64()*500))
		h.Record(v)
		values = append(values, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := ExactQuantile(values, q)
		if relErr(got, want) > 0.05 {
			t.Errorf("q=%v: got %d want %d (rel err %.3f)", q, got, want, relErr(got, want))
		}
	}
}

func TestHistogramMeanSum(t *testing.T) {
	h := NewHistogram()
	var sum int64
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
		sum += i
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
	if h.Mean() != float64(sum)/100 {
		t.Fatalf("mean = %f, want %f", h.Mean(), float64(sum)/100)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	h.Record(20)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("reset did not clear: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("post-reset record broken: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 1000; i++ {
		a.Record(int64(i))
		b.Record(int64(i + 1000))
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("merged count = %d, want 2000", a.Count())
	}
	if a.Min() != 0 || relErr(a.Max(), 1999) > 0.05 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 5000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(rng.Int63n(1_000_000))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	// Property: quantiles are non-decreasing in q.
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v % 10_000_000))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Property: for any value, the representative value of its bucket is
	// within ~2/subBuckets relative error.
	f := func(raw uint32) bool {
		v := int64(raw)
		idx := bucketIndex(v)
		rep := valueAt(idx)
		if v < subBuckets {
			return rep == v || rep == v+0 // exact in the linear range
		}
		return relErr(rep, v) <= 2.0/subBuckets+0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketLowConsistent(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1 << 30} {
		idx := bucketIndex(v)
		low := bucketLow(idx)
		if low > v {
			t.Errorf("bucketLow(%d)=%d > value %d", idx, low, v)
		}
		if idx > 0 && bucketLow(idx-1) >= bucketLow(idx) && bucketLow(idx) != 0 {
			t.Errorf("bucketLow not increasing at idx %d", idx)
		}
	}
}

func TestExactQuantile(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7}
	if got := ExactQuantile(vals, 0); got != 1 {
		t.Errorf("q0 = %d, want 1", got)
	}
	if got := ExactQuantile(vals, 1); got != 9 {
		t.Errorf("q1 = %d, want 9", got)
	}
	if got := ExactQuantile(vals, 0.5); got != 5 {
		t.Errorf("q0.5 = %d, want 5", got)
	}
	if got := ExactQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %d, want 0", got)
	}
	// input must not be mutated
	if vals[0] != 5 || vals[4] != 7 {
		t.Errorf("ExactQuantile mutated input: %v", vals)
	}
}

func relErr(got, want int64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}
