// Package workload implements a YCSB-style workload generator (paper §6.1):
// key choosers (uniform, zipfian, scrambled zipfian, latest), operation
// mixes (Workload A: 50/50 update-heavy; Workload B: 95/5 read-heavy),
// and record datasets (a synthetic Cities dataset plus two machine-generated
// KV datasets) used for data insertion in place of YCSB's random strings.
package workload

import (
	"math"
	"math/rand"
)

// KeyChooser selects the index of the next key to operate on,
// in [0, n) for some population size n.
type KeyChooser interface {
	// Next returns a key index using the supplied source of randomness.
	Next(rng *rand.Rand) int64
	// SetItemCount updates the population size (for insert-growing workloads).
	SetItemCount(n int64)
}

// --- Uniform ---

// Uniform picks keys uniformly at random.
type Uniform struct{ n int64 }

// NewUniform returns a uniform chooser over [0, n).
func NewUniform(n int64) *Uniform {
	if n < 1 {
		n = 1
	}
	return &Uniform{n: n}
}

// Next implements KeyChooser.
func (u *Uniform) Next(rng *rand.Rand) int64 { return rng.Int63n(u.n) }

// SetItemCount implements KeyChooser.
func (u *Uniform) SetItemCount(n int64) {
	if n > 0 {
		u.n = n
	}
}

// --- Zipfian (Gray et al. quick method, as used by YCSB) ---

// Zipfian generates keys with a zipfian distribution: item 0 is most
// popular, with popularity decaying as rank^-theta. This reproduces the
// skewed access patterns the paper's tiered-storage analysis targets (§2.5.2).
type Zipfian struct {
	items         int64
	theta         float64
	alpha         float64
	zetan         float64
	zeta2theta    float64
	eta           float64
	countForZeta  int64
	allowItemGrow bool
	base          int64
}

// ZipfianTheta is YCSB's default skew constant.
const ZipfianTheta = 0.99

// NewZipfian returns a zipfian chooser over [0, n) with the given theta.
func NewZipfian(n int64, theta float64) *Zipfian {
	if n < 1 {
		n = 1
	}
	z := &Zipfian{items: n, theta: theta, allowItemGrow: true}
	z.zeta2theta = zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.zetan = zetaStatic(n, theta)
	z.countForZeta = n
	z.eta = z.computeEta()
	return z
}

func (z *Zipfian) computeEta() float64 {
	return (1 - math.Pow(2.0/float64(z.items), 1-z.theta)) / (1 - z.zeta2theta/z.zetan)
}

// zetaStatic computes the zeta constant sum_{i=1..n} 1/i^theta.
func zetaStatic(n int64, theta float64) float64 {
	var sum float64
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// zetaIncr extends a previously computed zeta from oldN to n.
func zetaIncr(oldN int64, n int64, theta, oldZeta float64) float64 {
	sum := oldZeta
	for i := oldN + 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// SetItemCount implements KeyChooser; recomputes zeta incrementally.
func (z *Zipfian) SetItemCount(n int64) {
	if n <= z.items || !z.allowItemGrow {
		return
	}
	z.zetan = zetaIncr(z.countForZeta, n, z.theta, z.zetan)
	z.countForZeta = n
	z.items = n
	z.eta = z.computeEta()
}

// Next implements KeyChooser using the Gray et al. analytic method.
func (z *Zipfian) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return z.base
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return z.base + 1
	}
	idx := z.base + int64(float64(z.items)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.base+z.items {
		idx = z.base + z.items - 1
	}
	return idx
}

// --- Scrambled Zipfian ---

// ScrambledZipfian spreads the zipfian head across the key space by
// hashing, so hot keys are not clustered at low indexes. This matches
// YCSB's default request distribution.
type ScrambledZipfian struct {
	z *Zipfian
	n int64
}

// NewScrambledZipfian returns a scrambled zipfian chooser over [0, n).
func NewScrambledZipfian(n int64, theta float64) *ScrambledZipfian {
	if n < 1 {
		n = 1
	}
	return &ScrambledZipfian{z: NewZipfian(n, theta), n: n}
}

// Next implements KeyChooser.
func (s *ScrambledZipfian) Next(rng *rand.Rand) int64 {
	r := s.z.Next(rng)
	return int64(fnvHash64(uint64(r)) % uint64(s.n))
}

// SetItemCount implements KeyChooser.
func (s *ScrambledZipfian) SetItemCount(n int64) {
	if n > s.n {
		s.n = n
		s.z.SetItemCount(n)
	}
}

// fnvHash64 is the FNV-1a 64-bit hash of an integer, used for scrambling.
func fnvHash64(v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// --- Latest ---

// Latest favors recently inserted items: the most recent item is the most
// popular. Used for workloads with temporal locality (paper case study 2,
// where "recent data is frequently accessed").
type Latest struct {
	z *Zipfian
	n int64
}

// NewLatest returns a latest-skewed chooser over [0, n).
func NewLatest(n int64, theta float64) *Latest {
	if n < 1 {
		n = 1
	}
	return &Latest{z: NewZipfian(n, theta), n: n}
}

// Next implements KeyChooser: index counted back from the newest item.
func (l *Latest) Next(rng *rand.Rand) int64 {
	off := l.z.Next(rng)
	idx := l.n - 1 - off
	if idx < 0 {
		idx = 0
	}
	return idx
}

// SetItemCount implements KeyChooser.
func (l *Latest) SetItemCount(n int64) {
	if n > 0 {
		l.n = n
		l.z.SetItemCount(n)
	}
}

// --- Sequential ---

// Sequential returns 0,1,2,... and is used for the YCSB load phase.
type Sequential struct{ next int64 }

// NewSequential returns a sequential chooser starting at 0.
func NewSequential() *Sequential { return &Sequential{} }

// Next implements KeyChooser (ignores rng).
func (s *Sequential) Next(_ *rand.Rand) int64 {
	v := s.next
	s.next++
	return v
}

// SetItemCount implements KeyChooser (no-op).
func (s *Sequential) SetItemCount(int64) {}

// --- Hotspot ---

// Hotspot sends hotOpFraction of operations to a hotSetFraction of the keys.
// Used to construct the burst scenario in fig9 and the elastic threading
// tests: a dynamic hotspot concentrates on one shard.
type Hotspot struct {
	n              int64
	hotSetFraction float64
	hotOpFraction  float64
}

// NewHotspot returns a hotspot chooser over [0,n).
func NewHotspot(n int64, hotSetFraction, hotOpFraction float64) *Hotspot {
	if n < 1 {
		n = 1
	}
	if hotSetFraction <= 0 || hotSetFraction > 1 {
		hotSetFraction = 0.2
	}
	if hotOpFraction < 0 || hotOpFraction > 1 {
		hotOpFraction = 0.8
	}
	return &Hotspot{n: n, hotSetFraction: hotSetFraction, hotOpFraction: hotOpFraction}
}

// Next implements KeyChooser.
func (h *Hotspot) Next(rng *rand.Rand) int64 {
	hotN := int64(float64(h.n) * h.hotSetFraction)
	if hotN < 1 {
		hotN = 1
	}
	if rng.Float64() < h.hotOpFraction {
		return rng.Int63n(hotN)
	}
	coldN := h.n - hotN
	if coldN < 1 {
		return rng.Int63n(h.n)
	}
	return hotN + rng.Int63n(coldN)
}

// SetItemCount implements KeyChooser.
func (h *Hotspot) SetItemCount(n int64) {
	if n > 0 {
		h.n = n
	}
}

// --- Shifting hotspot ---

// ShiftingHotspot is a hotspot whose hot set rotates through the key
// space every shiftEvery operations: phase p concentrates hotOpFraction
// of operations on the window starting at p*hotN (mod n). It models the
// workload drift a cache must re-converge under: after every shift the
// resident set is the wrong one.
type ShiftingHotspot struct {
	n              int64
	hotSetFraction float64
	hotOpFraction  float64
	shiftEvery     int64
	ops            int64
}

// NewShiftingHotspot returns a shifting-hotspot chooser over [0,n) whose
// hot window rotates every shiftEvery operations.
func NewShiftingHotspot(n int64, hotSetFraction, hotOpFraction float64, shiftEvery int64) *ShiftingHotspot {
	if n < 1 {
		n = 1
	}
	if hotSetFraction <= 0 || hotSetFraction > 1 {
		hotSetFraction = 0.1
	}
	if hotOpFraction < 0 || hotOpFraction > 1 {
		hotOpFraction = 0.9
	}
	if shiftEvery < 1 {
		shiftEvery = 100000
	}
	return &ShiftingHotspot{
		n:              n,
		hotSetFraction: hotSetFraction,
		hotOpFraction:  hotOpFraction,
		shiftEvery:     shiftEvery,
	}
}

// Phase reports the current hot-window index (ops so far / shiftEvery).
func (s *ShiftingHotspot) Phase() int64 { return s.ops / s.shiftEvery }

// Next implements KeyChooser. Determinism: the phase advances purely on
// the operation count, so a fixed seed replays the exact key sequence.
// Not safe for concurrent use (like the other choosers — wrap per
// goroutine or feed from one).
func (s *ShiftingHotspot) Next(rng *rand.Rand) int64 {
	phase := s.ops / s.shiftEvery
	s.ops++
	hotN := int64(float64(s.n) * s.hotSetFraction)
	if hotN < 1 {
		hotN = 1
	}
	start := (phase * hotN) % s.n
	if rng.Float64() < s.hotOpFraction {
		return (start + rng.Int63n(hotN)) % s.n
	}
	coldN := s.n - hotN
	if coldN < 1 {
		return rng.Int63n(s.n)
	}
	// Offset past the hot window, wrapping around the key space.
	return (start + hotN + rng.Int63n(coldN)) % s.n
}

// SetItemCount implements KeyChooser.
func (s *ShiftingHotspot) SetItemCount(n int64) {
	if n > 0 {
		s.n = n
	}
}
