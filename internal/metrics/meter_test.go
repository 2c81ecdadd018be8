package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestMeterBasics(t *testing.T) {
	m := NewMeter()
	if m.Rate() != 0 {
		t.Fatal("unmarked meter should have rate 0")
	}
	m.Mark(10)
	m.Mark(5)
	if m.Count() != 15 {
		t.Fatalf("count = %d, want 15", m.Count())
	}
	time.Sleep(10 * time.Millisecond)
	if m.Rate() <= 0 {
		t.Fatalf("rate should be positive, got %f", m.Rate())
	}
	m.Reset()
	if m.Count() != 0 || m.Rate() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Mark(1)
			}
		}()
	}
	wg.Wait()
	if m.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", m.Count())
	}
}

func TestWindowCounterRate(t *testing.T) {
	w := NewWindowCounter(5, 100*time.Millisecond)
	base := time.Unix(3000, 0).UnixNano()
	now := base
	w.SetClock(func() int64 { return now })

	w.Mark(100)
	// one populated slot of 0.1s: 100/0.1 = 1000/s
	if r := w.Rate(); r < 900 || r > 1100 {
		t.Fatalf("rate = %f, want ~1000", r)
	}

	// advance two slots, mark 50: two populated slots, 150 over 0.2s
	now = base + int64(200*time.Millisecond)
	w.Mark(50)
	if r := w.Rate(); r < 700 || r > 800 {
		t.Fatalf("rate = %f, want ~750", r)
	}
}

func TestWindowCounterExpiry(t *testing.T) {
	w := NewWindowCounter(3, 100*time.Millisecond)
	base := time.Unix(4000, 0).UnixNano()
	now := base
	w.SetClock(func() int64 { return now })
	w.Mark(300)
	// Jump far beyond the window: the old slot's epoch is stale, so Rate
	// must not count it...
	now = base + int64(time.Second)
	w.Mark(3)
	if r := w.Rate(); r > 100 {
		t.Fatalf("stale events leaked into rate: %f", r)
	}
	// ...and the next Mark landing on the recycled slot resets its count
	// instead of accumulating onto the stale 300.
	now = base + int64(time.Second) + int64(300*time.Millisecond)
	w.Mark(10)
	if r := w.Rate(); r > 200 {
		t.Fatalf("recycled slot kept its stale count: rate = %f", r)
	}
}

func TestWindowCounterConcurrent(t *testing.T) {
	w := NewWindowCounter(8, 50*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Mark(1)
			}
		}()
	}
	wg.Wait()
	// 8000 marks within well under the 400ms window; the counter is
	// allowed to be approximate under rollover races but not wildly off.
	if r := w.Rate(); r < 1000 {
		t.Fatalf("concurrent rate collapsed: %f", r)
	}
}
