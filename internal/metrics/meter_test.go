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
	if m.count.Load() != 15 {
		t.Fatalf("count = %d, want 15", m.count.Load())
	}
	time.Sleep(10 * time.Millisecond)
	if m.Rate() <= 0 {
		t.Fatalf("rate should be positive, got %f", m.Rate())
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
	if m.count.Load() != 8000 {
		t.Fatalf("count = %d, want 8000", m.count.Load())
	}
}
