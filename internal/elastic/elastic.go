// Package elastic implements TierBase's elastic threading (paper §4.4):
// a data node runs in single-worker mode by default (event-loop
// efficiency, minimal locking), and when the workload on the instance
// bursts, the controller "seamlessly transitions to multi-threaded mode by
// dynamically adding threads within the container's pre-allocated CPU
// resources"; when the burst subsides it drops back to one worker so the
// idle CPU returns to other tenants of the container.
package elastic

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Mode labels the current threading mode.
type Mode int

// Threading modes.
const (
	// Single is the default event-loop mode (one worker).
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
	// MaxWorkers is the container CPU budget (default 4).
	MaxWorkers int
	// QueueSize bounds the pending task queue (default 4096).
	QueueSize int
	// BoostQueueDepth triggers scale-up when the queue backlog reaches it
	// (default 4). Every front end (the server's command loop, the embedded
	// store's SubmitWait) keeps at most one task in flight per caller, so
	// the backlog is at most the number of callers waiting for a worker:
	// a handful already says the single worker is saturated.
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
	// Fixed pins the worker count (disables elasticity): 0 = elastic,
	// n>0 = always n workers. Used for the -s and -m baseline modes.
	Fixed int
}

func (o *PoolOptions) fill() {
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 4
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4096
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

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("elastic: pool stopped")

// Task is one unit of work. Submitting a long-lived Task object (instead
// of a fresh closure per call) keeps the submission path allocation-free;
// the server reuses one task per connection this way.
type Task interface{ Run() }

// funcTask adapts a plain closure to Task. Func values are pointer-shaped,
// so the interface conversion itself does not allocate.
type funcTask func()

func (f funcTask) Run() { f() }

// Pool is an elastically sized worker pool processing submitted tasks.
type Pool struct {
	opts   PoolOptions
	tasks  chan Task
	quitCh chan struct{} // one receive per worker retires it
	stopCh chan struct{}
	wg     sync.WaitGroup
	ctlWg  sync.WaitGroup

	workers  atomic.Int32
	stopped  atomic.Bool
	boosts   atomic.Int64 // scale-up events
	shrinks  atomic.Int64 // scale-down events
	executed atomic.Int64
	calm     int
	hot      int
}

// NewPool builds and starts a pool in single mode (or Fixed workers).
func NewPool(opts PoolOptions) *Pool {
	opts.fill()
	p := &Pool{
		opts:   opts,
		tasks:  make(chan Task, opts.QueueSize),
		quitCh: make(chan struct{}, opts.MaxWorkers),
		stopCh: make(chan struct{}),
	}
	start := 1
	if opts.Fixed > 0 {
		start = opts.Fixed
		if start > opts.MaxWorkers {
			start = opts.MaxWorkers
		}
	}
	for i := 0; i < start; i++ {
		p.spawnWorker()
	}
	if opts.Fixed == 0 {
		p.ctlWg.Add(1)
		go p.controlLoop()
	}
	return p
}

func (p *Pool) spawnWorker() {
	p.workers.Add(1)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case task, ok := <-p.tasks:
				if !ok {
					return
				}
				task.Run()
				p.executed.Add(1)
			case <-p.quitCh:
				return
			case <-p.stopCh:
				// Drain remaining tasks before exiting.
				for {
					select {
					case task, ok := <-p.tasks:
						if !ok {
							return
						}
						task.Run()
						p.executed.Add(1)
					default:
						return
					}
				}
			}
		}
	}()
}

// controlLoop evaluates load and adjusts the worker count with hysteresis
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
		depth := len(p.tasks)
		cur := int(p.workers.Load())
		hot := depth >= p.opts.BoostQueueDepth
		switch {
		case hot && cur < p.opts.MaxWorkers:
			p.calm = 0
			p.hot++
			if p.hot < p.opts.BoostTicks {
				break
			}
			// Burst confirmed: add workers aggressively (double).
			add := cur
			if cur+add > p.opts.MaxWorkers {
				add = p.opts.MaxWorkers - cur
			}
			for i := 0; i < add; i++ {
				p.spawnWorker()
			}
			p.boosts.Add(1)
			p.hot = 0
		case depth == 0 && cur > 1:
			p.hot = 0
			p.calm++
			if p.calm >= p.opts.CooldownTicks {
				// Calm long enough: retire all extra workers.
				for i := cur; i > 1; i-- {
					select {
					case p.quitCh <- struct{}{}:
						p.workers.Add(-1)
					default:
					}
				}
				p.shrinks.Add(1)
				p.calm = 0
			}
		default:
			p.calm = 0
			p.hot = 0
		}
	}
}

// SubmitTask enqueues a task, blocking when the queue is full (natural
// backpressure that the controller observes as depth). Allocation-free
// when t is a reused object.
func (p *Pool) SubmitTask(t Task) error {
	if p.stopped.Load() {
		return ErrStopped
	}
	select {
	case p.tasks <- t:
		return nil
	case <-p.stopCh:
		return ErrStopped
	}
}

// Submit enqueues a plain closure.
func (p *Pool) Submit(task func()) error {
	return p.SubmitTask(funcTask(task))
}

// SubmitWait runs the task through the pool and waits for completion.
func (p *Pool) SubmitWait(task func()) error {
	done := make(chan struct{})
	if err := p.Submit(func() {
		task()
		close(done)
	}); err != nil {
		return err
	}
	<-done
	return nil
}

// Workers returns the current worker count.
func (p *Pool) Workers() int { return int(p.workers.Load()) }

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
	Backlog    int
}

// Stats returns a snapshot.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:    p.Workers(),
		MaxWorkers: p.opts.MaxWorkers,
		Boosts:     p.boosts.Load(),
		Shrinks:    p.shrinks.Load(),
		Executed:   p.executed.Load(),
		Backlog:    len(p.tasks),
	}
}

// Stop stops the controller and all workers, then drains anything still
// queued so no SubmitWait caller is left blocked on a task that never
// runs (a Submit racing Stop can land a task after the workers exit).
func (p *Pool) Stop() {
	if p.stopped.Swap(true) {
		return
	}
	close(p.stopCh)
	p.ctlWg.Wait()
	p.wg.Wait()
	for {
		select {
		case task := <-p.tasks:
			task.Run()
			p.executed.Add(1)
		default:
			return
		}
	}
}
