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
