package cluster

import (
	"testing"
	"time"
)

func TestBackoffDoublesToMax(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if d := b.Next(); d != w*time.Millisecond {
			t.Fatalf("Next %d = %v, want %v", i, d, w*time.Millisecond)
		}
	}
}

func TestBackoffReset(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: -1}
	b.Next()
	b.Next()
	b.Reset()
	if d := b.Next(); d != 10*time.Millisecond {
		t.Fatalf("Next after Reset = %v, want Base", d)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Max: time.Hour, Jitter: 0.5}
	d := b.Next()
	if d < 100*time.Millisecond || d >= 150*time.Millisecond {
		t.Fatalf("jittered first delay %v outside [100ms, 150ms)", d)
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	d := b.Next()
	if d < 50*time.Millisecond || d > 75*time.Millisecond {
		t.Fatalf("zero-value first delay %v outside [50ms, 75ms]", d)
	}
	for i := 0; i < 20; i++ {
		if d := b.Next(); d > 2*time.Second {
			t.Fatalf("delay %v exceeds default Max", d)
		}
	}
}
