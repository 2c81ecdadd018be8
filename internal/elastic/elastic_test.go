package elastic

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// burst starts n goroutines that each pass fn through p once, and returns
// a wait for all of them. It is the load shape every front end has: each
// caller has at most one call in flight.
func burst(p *Pool, n int, fn func()) (wait func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.SubmitWait(fn)
		}()
	}
	return wg.Wait
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolExecutesTasks(t *testing.T) {
	p := NewPool(PoolOptions{})
	defer p.Stop()
	var n atomic.Int64
	burst(p, 100, func() { n.Add(1) })()
	if n.Load() != 100 || p.Stats().Executed != 100 {
		t.Fatalf("executed %d, counted %d", n.Load(), p.Stats().Executed)
	}
}

// TestSubmitWaitRuns: the function has run when SubmitWait returns.
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

// TestSingleModeRunsOneAtATime: in single mode no two callers are inside
// the gate at once, however many wait.
func TestSingleModeRunsOneAtATime(t *testing.T) {
	p := NewPool(PoolOptions{Fixed: 1})
	defer p.Stop()
	var inside, most atomic.Int32
	burst(p, 32, func() {
		n := inside.Add(1)
		if n > most.Load() {
			most.Store(n)
		}
		time.Sleep(100 * time.Microsecond)
		inside.Add(-1)
	})()
	if most.Load() != 1 {
		t.Fatalf("%d callers ran at once in single mode", most.Load())
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

// TestPoolFixedMode: a fixed pool has its slots from the start, runs that
// many callers at once and never scales.
func TestPoolFixedMode(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 8, Fixed: 4})
	defer p.Stop()
	if p.Workers() != 4 {
		t.Fatalf("fixed workers %d", p.Workers())
	}
	release := make(chan struct{})
	defer close(release) // before Stop, which waits for the callers
	var inside atomic.Int32
	burst(p, 4, func() { inside.Add(1); <-release })
	waitFor(t, "four callers inside a four-slot gate", func() bool { return inside.Load() == 4 })
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
	p := NewPool(PoolOptions{MaxWorkers: 4})
	defer p.Stop()
	// Saturate the one slot with slow callers to build a backlog.
	wait := burst(p, 200, func() { time.Sleep(time.Millisecond) })
	waitFor(t, "a boost", func() bool { return p.Workers() >= 2 })
	if p.Mode() != Boost {
		t.Fatal("mode should be boost")
	}
	wait()
	if p.Stats().Boosts == 0 {
		t.Fatal("boost counter zero")
	}
}

func TestPoolScalesBackAfterCalm(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 4})
	defer p.Stop()
	burst(p, 100, func() { time.Sleep(500 * time.Microsecond) })()
	waitFor(t, "the shrink back to one slot", func() bool { return p.Workers() == 1 })
	if p.Stats().Shrinks == 0 {
		t.Fatal("shrink counter zero")
	}
}

// TestBoostAdmitsWaiters: the slots a boost opens go to callers already
// waiting; nobody has to release one first. Eight callers that never
// return leave four waiting only once two boosts have opened four slots.
func TestBoostAdmitsWaiters(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 4})
	defer p.Stop()
	release := make(chan struct{})
	defer close(release) // before Stop, which waits for the callers
	var inside atomic.Int32
	burst(p, 8, func() { inside.Add(1); <-release })
	waitFor(t, "four callers inside after two boosts", func() bool { return inside.Load() == 4 })
}

// TestPoolHysteresisNoFlapping: a backlog shorter than boostDepth, however
// often it forms, leaves the pool single. Each round holds the one slot,
// queues boostDepth-1 callers behind it and lets them all through.
func TestPoolHysteresisNoFlapping(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 4})
	defer p.Stop()
	for round := 0; round < 10; round++ {
		hold := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < boostDepth; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.SubmitWait(func() { <-hold })
			}()
			waitFor(t, "caller to enter the gate", func() bool { return p.inGate() == 1+i })
		}
		close(hold)
		wg.Wait()
	}
	if st := p.Stats(); st.Boosts != 0 || st.Workers != 1 || st.Executed != 10*boostDepth {
		t.Fatalf("a shallow backlog boosted the pool: %+v", st)
	}
}

// TestBoostAtAdmissionShrinkAfterCooldown: the pool sizes itself inside
// the calls it gates, not on a timer. With the one slot held, callers
// queued one at a time leave it single until the fourth, whose own
// SubmitWait doubles the slots and hands the new one to the oldest
// waiter: the pool reads two slots as soon as that caller is in the gate.
// Once no caller has waited for the cooldown, the next read of the pool
// puts it back to one slot. No goroutine runs beside the callers.
func TestBoostAtAdmissionShrinkAfterCooldown(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(PoolOptions{MaxWorkers: 4})
	if n := runtime.NumGoroutine() - before; n > 0 {
		t.Fatalf("NewPool started %d goroutines", n)
	}
	hold := make(chan struct{})
	var wg sync.WaitGroup
	enter := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.SubmitWait(func() { <-hold })
		}()
	}
	enter()
	waitFor(t, "the slot to be held", func() bool { return p.inGate() == 1 })
	for i := 1; i < boostDepth; i++ {
		enter()
		waitFor(t, "caller to queue", func() bool { return p.inGate() == 1+i })
		if st := p.Stats(); st.Workers != 1 || st.Boosts != 0 {
			t.Fatalf("boosted with %d waiting: %+v", i, st)
		}
	}
	enter()
	waitFor(t, "caller to queue", func() bool { return p.inGate() == 1+boostDepth })
	queued := time.Now()
	if w, st := p.Workers(), p.Stats(); w != 2 || st.Boosts != 1 || st.Backlog != boostDepth-1 {
		t.Fatalf("after %d callers queued: workers %d, %+v; want 2 slots, 1 boost", boostDepth, w, st)
	}
	close(hold)
	wg.Wait()
	if time.Since(queued) < cooldown/2 && p.Workers() != 2 {
		t.Fatalf("shrank %v after a caller waited, inside the %v cooldown", time.Since(queued), cooldown)
	}
	time.Sleep(cooldown)
	if w, m, st := p.Workers(), p.Mode(), p.Stats(); w != 1 || m != Single || st.Shrinks != 1 {
		t.Fatalf("after the cooldown: workers %d, mode %v, %+v; want 1 slot, single, 1 shrink", w, m, st)
	}
	p.Stop()
}

// TestPoolAdmitsInArrivalOrder: with the one slot held, callers queued one
// by one in a known order run in that order, and the holder, calling again
// the moment it lets go (as a pipelining connection does), runs after all
// of them. A gate where a released slot is up for grabs (a sync.Cond) lets
// the holder take it straight back and fails this.
func TestPoolAdmitsInArrivalOrder(t *testing.T) {
	const n = 16
	p := NewPool(PoolOptions{Fixed: 1})
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	record := func(i int) func() {
		return func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	hold := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.SubmitWait(func() { <-hold })
		p.SubmitWait(record(n))
	}()
	waitFor(t, "the slot to be held", func() bool { return p.holding() == 1 })
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.SubmitWait(record(i))
		}()
		waitFor(t, "caller to queue", func() bool { return p.Stats().Backlog == i+1 })
	}
	close(hold)
	wg.Wait()
	p.Stop()
	for i, v := range order {
		if v != i || len(order) != n+1 {
			t.Fatalf("admission order %v, want 0..%d", order, n)
		}
	}
}

// holding reports how many callers hold a slot.
func (p *Pool) holding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}

// inGate reports how many callers hold or wait for a slot.
func (p *Pool) inGate() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running + len(p.waiters)
}

// isStopped reports whether Stop has been called.
func (p *Pool) isStopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopped
}

// TestPoolStopDrains: callers waiting when Stop is called still run, Stop
// returns only after they have, and later callers get ErrStopped.
func TestPoolStopDrains(t *testing.T) {
	p := NewPool(PoolOptions{Fixed: 1})
	hold := make(chan struct{})
	go p.SubmitWait(func() { <-hold })
	waitFor(t, "the slot to be held", func() bool { return p.holding() == 1 })
	var n atomic.Int64
	wait := burst(p, 50, func() { n.Add(1) })
	waitFor(t, "50 waiters", func() bool { return p.Stats().Backlog == 50 })
	stopped := make(chan struct{})
	go func() { p.Stop(); close(stopped) }()
	waitFor(t, "Stop to be called", p.isStopped)
	if err := p.SubmitWait(func() {}); err != ErrStopped {
		t.Fatalf("submitwait while stopping: %v", err)
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while a caller held a slot")
	case <-time.After(20 * time.Millisecond):
	}
	close(hold)
	<-stopped
	if n.Load() != 50 {
		t.Fatalf("drained %d/50", n.Load())
	}
	wait()
	if err := p.SubmitWait(func() {}); err != ErrStopped {
		t.Fatalf("submitwait after stop: %v", err)
	}
	p.Stop() // idempotent
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
		p := NewPool(PoolOptions{MaxWorkers: 4, Fixed: fixed})
		defer p.Stop()
		start := time.Now()
		burst(p, 300, work)()
		return time.Since(start)
	}
	single := run(1)
	multi := run(2)
	if multi >= single {
		t.Skipf("no speedup on this machine (single=%v multi=%v)", single, multi)
	}
}

// TestPoolRateTriggerDisabledByDefault: backlog is the only trigger. One
// caller submitting back to back never leaves another waiting, so however
// fast it submits the pool stays single.
func TestPoolRateTriggerDisabledByDefault(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkers: 4})
	defer p.Stop()
	for i := 0; i < 200; i++ {
		p.SubmitWait(func() {})
	}
	if st := p.Stats(); st.Boosts != 0 || st.Workers != 1 {
		t.Fatalf("one caller boosted the pool: %+v", st)
	}
}

// BenchmarkPoolSubmitWait is the gate's own cost: one caller that always
// finds the slot free, and two callers sharing one slot, where every call
// may wait for the other's. "backlog" is fig9's single-slot burst: eight
// callers queue for one slot and each holds it for 10µs of CPU, so 10µs/op
// is a slot that never idles and the rest is what each handoff costs.
func BenchmarkPoolSubmitWait(b *testing.B) {
	b.Run("uncontended", func(b *testing.B) {
		p := NewPool(PoolOptions{})
		defer p.Stop()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.SubmitWait(func() {})
		}
	})
	b.Run("shared", func(b *testing.B) {
		p := NewPool(PoolOptions{Fixed: 1})
		defer p.Stop()
		b.ReportAllocs()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					p.SubmitWait(func() {})
				}
			}(b.N/2 + g*(b.N%2))
		}
		wg.Wait()
	})
	b.Run("backlog", func(b *testing.B) {
		p := NewPool(PoolOptions{Fixed: 1})
		defer p.Stop()
		work := func() {
			for end := time.Now().Add(10 * time.Microsecond); time.Now().Before(end); {
			}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(b.N) {
					p.SubmitWait(work)
				}
			}()
		}
		wg.Wait()
	})
}
