package workload

import (
	"math/rand"
	"testing"
)

func TestShiftingHotspotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewShiftingHotspot(1000, 0.1, 0.9, 500)
	for i := 0; i < 20000; i++ {
		v := s.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("shifting hotspot out of range: %d", v)
		}
	}
}

// TestShiftingHotspotRotates checks the hot window actually moves: within
// one phase the hot window absorbs ~hotOpFraction of accesses, and after
// shiftEvery ops the dominant window is a different one.
func TestShiftingHotspotRotates(t *testing.T) {
	const (
		n     = 1000
		hotN  = 100 // 0.1 * n
		shift = 10000
	)
	rng := rand.New(rand.NewSource(12))
	s := NewShiftingHotspot(n, 0.1, 0.9, shift)

	phaseHot := func(phase int64, v int64) bool {
		start := (phase * hotN) % n
		return (v-start+n)%n < hotN
	}

	for phase := int64(0); phase < 3; phase++ {
		inHot := 0
		for i := 0; i < shift; i++ {
			if phaseHot(phase, s.Next(rng)) {
				inHot++
			}
		}
		frac := float64(inHot) / shift
		// 90% of ops target the hot window; the cold 10% spread over the
		// other 90% of keys, so expect ~0.9 + noise.
		if frac < 0.85 || frac > 0.95 {
			t.Errorf("phase %d: hot-window fraction %.3f, want ~0.9", phase, frac)
		}
	}
}

// TestShiftingHotspotDeterministic: same seed => same sequence (phase
// state advances on op count only, never on wall time).
func TestShiftingHotspotDeterministic(t *testing.T) {
	run := func() []int64 {
		rng := rand.New(rand.NewSource(13))
		s := NewShiftingHotspot(5000, 0.05, 0.85, 700)
		out := make([]int64, 3000)
		for i := range out {
			out[i] = s.Next(rng)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at op %d: %d != %d", i, a[i], b[i])
		}
	}
}

// TestGeneratorHotspotShiftDeterministic: the Spec wiring is seed-stable
// too, and uses ShiftEvery.
func TestGeneratorHotspotShiftDeterministic(t *testing.T) {
	spec := DefaultSpec(2000)
	spec.Distribution = "hotspot-shift"
	spec.ShiftEvery = 400
	run := func() []Op {
		return NewGenerator(spec, 0).Ops(2000)
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Key != b[i].Key {
			t.Fatalf("generator diverged at op %d: %v/%s != %v/%s",
				i, a[i].Kind, a[i].Key, b[i].Kind, b[i].Key)
		}
	}
}
