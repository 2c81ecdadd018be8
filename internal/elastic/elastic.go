// Package elastic implements TierBase's elastic threading (paper §4.4):
// a data node runs in single-threaded mode by default (event-loop
// efficiency, minimal locking), and when the workload on the instance
// bursts, it "seamlessly transitions to multi-threaded mode by dynamically
// adding threads within the container's pre-allocated CPU resources";
// when the burst subsides it drops back to one thread so the idle CPU
// returns to other tenants of the container.
//
// A Pool is a gate, not a pool of worker goroutines: SubmitWait runs its
// function on the caller's own goroutine once one of the pool's slots is
// free. One slot is single mode — at most one function runs at a time —
// and a boost raises the slot count. Callers waiting for a slot are
// admitted in arrival order.
//
// The pool sizes itself at admission, under the lock every caller already
// takes; no goroutine samples it. A boost: a caller that queues as the
// fourth waiter or later (boostDepth) doubles the slots, up to MaxWorkers,
// and the new slots go straight to the oldest waiters. Each caller has at
// most one call in flight, so four waiting says the one slot is
// saturated. A shrink: once no caller has had to wait for 200 ms
// (cooldown) and none waits, the next SubmitWait, release or read of the
// pool's state puts it back to one slot. Only a boosted pool reads the
// clock; in single mode admission costs what it would without elasticity.
package elastic

import (
	"errors"
	"runtime"
	"sync"
	"time"
)

const (
	// boostDepth is how many waiting callers boost the pool.
	boostDepth = 4
	// cooldown is how long a boosted pool must go without a caller
	// waiting before it drops back to one slot.
	cooldown = 200 * time.Millisecond
)

// Mode labels the current threading mode.
type Mode int

// Threading modes.
const (
	// Single is the default event-loop mode (one slot).
	Single Mode = iota
	// Boost is multi-threaded mode using idle container CPU.
	Boost
)

// String names the mode.
func (m Mode) String() string {
	if m == Boost {
		return "boost"
	}
	return "single"
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// MaxWorkers is the container CPU budget: the most slots a boost
	// opens (default 4).
	MaxWorkers int
	// Fixed pins the slot count (disables elasticity): 0 = elastic,
	// n>0 = always n slots. Used for the -s and -m baseline modes.
	Fixed int
}

// ErrStopped is returned by SubmitWait after Stop.
var ErrStopped = errors.New("elastic: pool stopped")

// Pool is an elastically sized gate: at most Stats().Workers callers run
// inside it at once. Everything below mu is guarded by it, and one
// invariant holds whenever it is released: a caller waits only while every
// slot is taken (running >= slots).
type Pool struct {
	opts PoolOptions

	mu       sync.Mutex
	idle     sync.Cond       // on mu; signalled when a stopped pool empties
	slots    int             // how many callers may run at once
	running  int             // callers holding a slot
	waiters  []chan struct{} // callers waiting for a slot, oldest first
	free     []chan struct{} // wake channels of finished waiters, for reuse
	lastWait time.Time       // when a caller last queued; kept only while boosted
	stopped  bool
	boosts   int64 // scale-up events
	shrinks  int64 // scale-down events
	executed int64
}

// NewPool builds a pool in single mode (or with Fixed slots).
func NewPool(opts PoolOptions) *Pool {
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = 4
	}
	p := &Pool{opts: opts, slots: 1}
	p.idle.L = &p.mu
	if opts.Fixed > 0 {
		p.slots = min(opts.Fixed, opts.MaxWorkers)
	}
	return p
}

// SubmitWait runs fn on the calling goroutine once a slot is free, and
// releases the slot when fn returns. A caller that finds every slot taken
// waits behind the callers already waiting; a freed slot passes straight
// to the oldest of them. fn is never stored, so a closure passed here
// stays on the caller's stack.
func (p *Pool) SubmitWait(fn func()) error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return ErrStopped
	}
	p.settle()
	var wake chan struct{}
	if p.running < p.slots {
		p.running++
	} else {
		if n := len(p.free); n > 0 {
			wake, p.free = p.free[n-1], p.free[:n-1]
		} else {
			wake = make(chan struct{}, 1)
		}
		p.waiters = append(p.waiters, wake)
		p.queued()
	}
	p.mu.Unlock()
	if wake != nil {
		<-wake // admit counted the slot as ours before sending
	}
	defer p.release(wake)
	fn()
	return nil
}

// release gives back the slot fn ran in and recycles the caller's wake
// channel, if it waited. A slot handed to a waiter is idle until that
// goroutine runs, and the scheduler queues it behind the releasing one,
// which goes on with its own work (a server connection writes its reply
// and reads the next command); so the releaser yields its P at once, as
// sync.Mutex does in starvation mode.
func (p *Pool) release(wake chan struct{}) {
	p.mu.Lock()
	if wake != nil {
		p.free = append(p.free, wake)
	}
	p.executed++
	p.running--
	p.settle()
	waiting := len(p.waiters)
	p.admit()
	handed := len(p.waiters) < waiting
	if p.stopped && p.running == 0 {
		p.idle.Broadcast()
	}
	p.mu.Unlock()
	if handed {
		runtime.Gosched()
	}
}

// admit hands free slots to the oldest waiters. p.mu is held. The wake
// channels are 1-buffered, so the send never blocks.
func (p *Pool) admit() {
	for p.running < p.slots && len(p.waiters) > 0 {
		wake := p.waiters[0]
		n := copy(p.waiters, p.waiters[1:])
		p.waiters[n] = nil
		p.waiters = p.waiters[:n]
		p.running++
		wake <- struct{}{}
	}
}

// queued follows a caller joining the waiters. p.mu is held. At
// boostDepth waiters an elastic pool doubles its slots, up to MaxWorkers,
// and hands the new ones to the oldest waiters; a boosted pool notes when
// a caller last had to wait, which settle's cooldown runs from.
func (p *Pool) queued() {
	if p.opts.Fixed > 0 {
		return
	}
	if len(p.waiters) >= boostDepth && p.slots < p.opts.MaxWorkers {
		p.slots = min(2*p.slots, p.opts.MaxWorkers)
		p.boosts++
		p.admit()
	}
	if p.slots > 1 {
		p.lastWait = time.Now()
	}
}

// settle puts a boosted pool back to one slot once no caller waits and
// none has for cooldown. p.mu is held. Callers running in the extra slots
// finish; their slots are not handed on. In single mode it reads nothing
// but the slot count, and it is small enough to inline.
func (p *Pool) settle() {
	if p.slots > 1 {
		p.shrinkIfCalm()
	}
}

func (p *Pool) shrinkIfCalm() {
	if p.opts.Fixed == 0 && len(p.waiters) == 0 && time.Since(p.lastWait) >= cooldown {
		p.slots = 1
		p.shrinks++
	}
}

// Mode reports single vs boost.
func (p *Pool) Mode() Mode {
	if p.Stats().Workers > 1 {
		return Boost
	}
	return Single
}

// Stats summarizes the pool's sizing activity.
type Stats struct {
	Workers    int
	MaxWorkers int
	Boosts     int64
	Shrinks    int64
	Executed   int64
	Backlog    int // callers waiting for a slot
}

// Stats returns a snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settle()
	return Stats{
		Workers:    p.slots,
		MaxWorkers: p.opts.MaxWorkers,
		Boosts:     p.boosts,
		Shrinks:    p.shrinks,
		Executed:   p.executed,
		Backlog:    len(p.waiters),
	}
}

// Stop refuses new callers and returns once nothing runs or waits: a
// caller already waiting when Stop is called still runs, so none is left
// blocked.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.stopped = true
	for p.running > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}
