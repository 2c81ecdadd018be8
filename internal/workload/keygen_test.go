package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := NewUniform(100)
	for i := 0; i < 10000; i++ {
		v := u.Next(rng)
		if v < 0 || v >= 100 {
			t.Fatalf("uniform out of range: %d", v)
		}
	}
}

func TestUniformCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := NewUniform(10)
	seen := make(map[int64]int)
	for i := 0; i < 10000; i++ {
		seen[u.Next(rng)]++
	}
	if len(seen) != 10 {
		t.Fatalf("uniform should cover all 10 keys, saw %d", len(seen))
	}
	for k, c := range seen {
		if c < 700 || c > 1300 {
			t.Errorf("key %d count %d far from uniform expectation 1000", k, c)
		}
	}
}

func TestZipfianBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipfian(1000, ZipfianTheta)
	for i := 0; i < 50000; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("zipfian out of range: %d", v)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := NewZipfian(10000, ZipfianTheta)
	counts := make(map[int64]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next(rng)]++
	}
	// Item 0 should be by far the most popular; the head (top 1%) should
	// capture the majority of accesses for theta=0.99.
	var head int
	for k, c := range counts {
		if k < 100 {
			head += c
		}
	}
	frac := float64(head) / n
	if frac < 0.4 {
		t.Fatalf("zipfian head fraction %.3f too small; distribution not skewed", frac)
	}
	if counts[0] < counts[5000] {
		t.Fatalf("item 0 (%d) should dominate mid-rank item (%d)", counts[0], counts[5000])
	}
}

func TestZipfianGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := NewZipfian(100, ZipfianTheta)
	z.SetItemCount(200)
	max := int64(0)
	for i := 0; i < 100000; i++ {
		v := z.Next(rng)
		if v > max {
			max = v
		}
		if v < 0 || v >= 200 {
			t.Fatalf("grown zipfian out of range: %d", v)
		}
	}
	if max < 100 {
		t.Fatalf("growth not effective; max seen %d", max)
	}
	// Shrinking is ignored.
	z.SetItemCount(50)
	if z.items != 200 {
		t.Fatalf("shrink should be ignored, items=%d", z.items)
	}
}

func TestScrambledZipfianSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewScrambledZipfian(10000, ZipfianTheta)
	counts := make(map[int64]int)
	for i := 0; i < 100000; i++ {
		v := s.Next(rng)
		if v < 0 || v >= 10000 {
			t.Fatalf("scrambled out of range: %d", v)
		}
		counts[v]++
	}
	// Hot keys should NOT be clustered at low indexes: the top key can be
	// anywhere. Verify low-index mass is not dominant.
	var low int
	for k, c := range counts {
		if k < 100 {
			low += c
		}
	}
	if frac := float64(low) / 100000; frac > 0.3 {
		t.Fatalf("scrambled zipfian still clustered at low indexes (%.3f)", frac)
	}
	// But skew must be preserved: top key >> median key.
	var maxC int
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 1000 {
		t.Fatalf("scrambling destroyed skew; max count %d", maxC)
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLatest(1000, ZipfianTheta)
	var recent int
	const n = 50000
	for i := 0; i < n; i++ {
		v := l.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("latest out of range: %d", v)
		}
		if v >= 990 {
			recent++
		}
	}
	if frac := float64(recent) / n; frac < 0.3 {
		t.Fatalf("latest chooser not favoring recent items: %.3f", frac)
	}
}

func TestHotspot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := NewHotspot(1000, 0.01, 0.9)
	var hot int
	const n = 50000
	for i := 0; i < n; i++ {
		v := h.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("hotspot out of range: %d", v)
		}
		if v < 10 {
			hot++
		}
	}
	frac := float64(hot) / n
	if math.Abs(frac-0.9) > 0.05 {
		t.Fatalf("hot fraction %.3f, want ~0.9", frac)
	}
}

func TestChooserBoundsProperty(t *testing.T) {
	// Property: all choosers always return indexes within [0, n).
	f := func(seed int64, nRaw uint16) bool {
		n := int64(nRaw%5000) + 1
		rng := rand.New(rand.NewSource(seed))
		choosers := []KeyChooser{
			NewUniform(n),
			NewZipfian(n, ZipfianTheta),
			NewScrambledZipfian(n, ZipfianTheta),
			NewLatest(n, ZipfianTheta),
			NewHotspot(n, 0.05, 0.8),
		}
		for _, c := range choosers {
			for i := 0; i < 200; i++ {
				v := c.Next(rng)
				if v < 0 || v >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFnvHashDisperses(t *testing.T) {
	seen := make(map[uint64]struct{})
	for i := uint64(0); i < 10000; i++ {
		seen[fnvHash64(i)] = struct{}{}
	}
	if len(seen) != 10000 {
		t.Fatalf("fnv collisions over small domain: %d unique", len(seen))
	}
}

func TestZetaIncrMatchesStatic(t *testing.T) {
	for _, n := range []int64{10, 100, 1000} {
		full := zetaStatic(n, ZipfianTheta)
		half := zetaStatic(n/2, ZipfianTheta)
		incr := zetaIncr(n/2, n, ZipfianTheta, half)
		if math.Abs(full-incr) > 1e-9 {
			t.Errorf("n=%d: static %.12f != incremental %.12f", n, full, incr)
		}
	}
}
