package elastic

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolExecutesTasks(t *testing.T) {
	p := NewPool(PoolOptions{})
	defer p.Stop()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.Submit(func() { n.Add(1); wg.Done() })
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("executed %d", n.Load())
	}
}

func TestPoolStartsSingle(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 8})
	defer p.Stop()
	if p.Workers() != 1 || p.Mode() != Single {
		t.Fatalf("workers=%d mode=%v", p.Workers(), p.Mode())
	}
	if Single.String() != "single" || Boost.String() != "boost" {
		t.Fatal("mode names")
	}
}

func TestPoolFixedMode(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 8, Fixed: 4})
	defer p.Stop()
	if p.Workers() != 4 {
		t.Fatalf("fixed workers %d", p.Workers())
	}
	// Fixed pools never scale.
	time.Sleep(50 * time.Millisecond)
	if p.Workers() != 4 {
		t.Fatalf("fixed pool scaled to %d", p.Workers())
	}
}

func TestPoolFixedClampedToMax(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 2, Fixed: 10})
	defer p.Stop()
	if p.Workers() != 2 {
		t.Fatalf("clamp failed: %d", p.Workers())
	}
}

func TestPoolBoostsUnderBurst(t *testing.T) {
	p := NewPool(PoolOptions{
		MaxWorkers:      4,
		QueueSize:       256,
		BoostQueueDepth: 8,
		EvalInterval:    5 * time.Millisecond,
	})
	defer p.Stop()
	// Saturate with slow tasks to build a backlog.
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		p.Submit(func() { time.Sleep(time.Millisecond); wg.Done() })
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Workers() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.Workers() < 2 {
		t.Fatalf("never boosted: %d workers, stats %+v", p.Workers(), p.Stats())
	}
	if p.Mode() != Boost {
		t.Fatal("mode should be boost")
	}
	wg.Wait()
	if p.Stats().Boosts == 0 {
		t.Fatal("boost counter zero")
	}
}

func TestPoolScalesBackAfterCalm(t *testing.T) {
	p := NewPool(PoolOptions{
		MaxWorkers:      4,
		QueueSize:       64,
		BoostQueueDepth: 4,
		EvalInterval:    2 * time.Millisecond,
		CooldownTicks:   3,
	})
	defer p.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.Submit(func() { time.Sleep(500 * time.Microsecond); wg.Done() })
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for p.Workers() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.Workers() != 1 {
		t.Fatalf("never scaled down: %d workers", p.Workers())
	}
	if p.Stats().Shrinks == 0 {
		t.Fatal("shrink counter zero")
	}
}

func TestPoolHysteresisNoFlapping(t *testing.T) {
	p := NewPool(PoolOptions{
		MaxWorkers:      4,
		BoostQueueDepth: 1000000, // never boost
		EvalInterval:    time.Millisecond,
		CooldownTicks:   5,
	})
	defer p.Stop()
	for i := 0; i < 50; i++ {
		p.SubmitWait(func() {})
	}
	if p.Stats().Boosts != 0 {
		t.Fatal("boosted without backlog")
	}
	if p.Workers() != 1 {
		t.Fatalf("workers %d", p.Workers())
	}
}

func TestPoolStopDrains(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 2})
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.Stop()
	if n.Load() != 50 {
		t.Fatalf("drained %d/50", n.Load())
	}
	if err := p.Submit(func() {}); err != ErrStopped {
		t.Fatalf("submit after stop: %v", err)
	}
	if err := p.SubmitWait(func() {}); err != ErrStopped {
		t.Fatalf("submitwait after stop: %v", err)
	}
	p.Stop() // idempotent
}

func TestSubmitWaitRuns(t *testing.T) {
	p := NewPool(PoolOptions{})
	defer p.Stop()
	ran := false
	if err := p.SubmitWait(func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("task did not run")
	}
}

func TestThroughputImprovesWithBoost(t *testing.T) {
	// The fig9 premise: under a CPU-bound burst, boost mode beats single.
	work := func() {
		x := 0
		for i := 0; i < 30000; i++ {
			x += i * i
		}
		_ = x
	}
	run := func(fixed int) time.Duration {
		p := NewPool(PoolOptions{MaxWorkers: 4, Fixed: fixed, QueueSize: 2048})
		defer p.Stop()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < 300; i++ {
			wg.Add(1)
			p.Submit(func() { work(); wg.Done() })
		}
		wg.Wait()
		return time.Since(start)
	}
	single := run(1)
	multi := run(2)
	if multi >= single {
		t.Skipf("no speedup on this machine (single=%v multi=%v)", single, multi)
	}
}

// TestPoolRateTriggerDisabledByDefault: backlog is the only trigger. One
// caller submitting back to back never leaves a task waiting, so however
// fast it submits the pool stays single at the default depth.
func TestPoolRateTriggerDisabledByDefault(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 4, EvalInterval: time.Millisecond})
	defer p.Stop()
	for i := 0; i < 200; i++ {
		p.SubmitWait(func() {})
	}
	if p.Stats().Boosts != 0 {
		t.Fatalf("one caller boosted the pool: %+v", p.Stats())
	}
}
