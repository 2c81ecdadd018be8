// Package elastic implements TierBase's elastic threading (paper §4.4):
// a data node runs in single-threaded mode by default (event-loop
// efficiency, minimal locking), and when the workload on the instance
// bursts, the controller "seamlessly transitions to multi-threaded mode by
// dynamically adding threads within the container's pre-allocated CPU
// resources"; when the burst subsides it drops back to one thread so the
// idle CPU returns to other tenants of the container.
//
// A Pool is a gate, not a pool of worker goroutines: SubmitWait runs its
// function on the caller's own goroutine once one of the pool's slots is
// free. One slot is single mode — at most one function runs at a time —
// and a boost raises the slot count. Callers waiting for a slot are the
// backlog the controller reads, and they are admitted in arrival order.
package elastic

import (
	"errors"
	"runtime"
	"sync"
	"time"
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
	// BoostQueueDepth triggers scale-up when this many callers wait for a
	// slot (default 4). Every front end (the server's command loop, the
	// embedded store) has at most one call in flight per caller, so a
	// handful waiting already says the single slot is saturated.
	BoostQueueDepth int
	// BoostTicks is how many consecutive hot evaluations are needed before
	// scaling up (boost-side hysteresis; default 1: react on the first
	// tick that observes a backlog).
	BoostTicks int
	// EvalInterval is the controller period (default 10 ms).
	EvalInterval time.Duration
	// CooldownTicks is how many consecutive calm evaluations are needed
	// before scaling back down (hysteresis; default 20).
	CooldownTicks int
	// Fixed pins the slot count (disables elasticity): 0 = elastic,
	// n>0 = always n slots. Used for the -s and -m baseline modes.
	Fixed int
}

func (o *PoolOptions) fill() {
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 4
	}
	if o.BoostQueueDepth <= 0 {
		o.BoostQueueDepth = 4
	}
	if o.BoostTicks <= 0 {
		o.BoostTicks = 1
	}
	if o.EvalInterval <= 0 {
		o.EvalInterval = 10 * time.Millisecond
	}
	if o.CooldownTicks <= 0 {
		o.CooldownTicks = 20
	}
}

// ErrStopped is returned by SubmitWait after Stop.
var ErrStopped = errors.New("elastic: pool stopped")

// Pool is an elastically sized gate: at most Workers() callers run inside
// it at once. Everything below mu is guarded by it, and one invariant
// holds whenever it is released: a caller waits only while every slot is
// taken (running >= slots).
type Pool struct {
	opts   PoolOptions
	stopCh chan struct{} // closed by Stop; retires the controller
	ctlWg  sync.WaitGroup

	mu       sync.Mutex
	idle     sync.Cond       // on mu; signalled when a stopped pool empties
	slots    int             // how many callers may run at once
	running  int             // callers holding a slot
	waiters  []chan struct{} // callers waiting for a slot, oldest first
	free     []chan struct{} // wake channels of finished waiters, for reuse
	stopped  bool
	boosts   int64 // scale-up events
	shrinks  int64 // scale-down events
	executed int64
	calm     int
	hot      int
}

// NewPool builds a pool in single mode (or with Fixed slots).
func NewPool(opts PoolOptions) *Pool {
	opts.fill()
	p := &Pool{opts: opts, stopCh: make(chan struct{}), slots: 1}
	p.idle.L = &p.mu
	if opts.Fixed > 0 {
		p.slots = min(opts.Fixed, opts.MaxWorkers)
	} else {
		p.ctlWg.Add(1)
		go p.controlLoop()
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

// controlLoop evaluates load and adjusts the slot count with hysteresis
// on both edges: BoostTicks consecutive hot samples before scaling up,
// CooldownTicks consecutive idle samples before scaling back down.
func (p *Pool) controlLoop() {
	defer p.ctlWg.Done()
	t := time.NewTicker(p.opts.EvalInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-t.C:
		}
		p.mu.Lock()
		p.evaluate()
		p.mu.Unlock()
	}
}

// evaluate is one controller tick. p.mu is held.
func (p *Pool) evaluate() {
	depth := len(p.waiters)
	switch {
	case depth >= p.opts.BoostQueueDepth && p.slots < p.opts.MaxWorkers:
		p.calm = 0
		p.hot++
		if p.hot < p.opts.BoostTicks {
			break
		}
		// Burst confirmed: add slots aggressively (double).
		p.slots = min(2*p.slots, p.opts.MaxWorkers)
		p.boosts++
		p.hot = 0
		p.admit()
	case depth == 0 && p.slots > 1:
		p.hot = 0
		p.calm++
		if p.calm >= p.opts.CooldownTicks {
			// Calm long enough: back to one slot. Callers running in the
			// extra slots finish; their slots are not handed on.
			p.slots = 1
			p.shrinks++
			p.calm = 0
		}
	default:
		p.calm = 0
		p.hot = 0
	}
}

// Workers returns the current slot count.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.slots
}

// Mode reports single vs boost.
func (p *Pool) Mode() Mode {
	if p.Workers() > 1 {
		return Boost
	}
	return Single
}

// Stats summarizes controller activity.
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
	return Stats{
		Workers:    p.slots,
		MaxWorkers: p.opts.MaxWorkers,
		Boosts:     p.boosts,
		Shrinks:    p.shrinks,
		Executed:   p.executed,
		Backlog:    len(p.waiters),
	}
}

// Stop refuses new callers, stops the controller and returns once nothing
// runs or waits: a caller already waiting when Stop is called still runs,
// so none is left blocked.
func (p *Pool) Stop() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.stopCh)
	}
	for p.running > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
	p.ctlWg.Wait()
}
