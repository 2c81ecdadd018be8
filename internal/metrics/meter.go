package metrics

import (
	"sync/atomic"
	"time"
)

// Meter counts events and reports throughput over the elapsed window.
// It is safe for concurrent use.
type Meter struct {
	count   atomic.Int64
	started atomic.Int64 // unix nanos of first Mark (or Start)
}

// NewMeter returns a meter whose clock starts at the first Mark.
func NewMeter() *Meter { return &Meter{} }

// Start pins the meter start time to now (optional; otherwise first Mark).
func (m *Meter) Start() { m.started.CompareAndSwap(0, time.Now().UnixNano()) }

// Mark records n events.
func (m *Meter) Mark(n int64) {
	m.started.CompareAndSwap(0, time.Now().UnixNano())
	m.count.Add(n)
}

// Count returns the total marked events.
func (m *Meter) Count() int64 { return m.count.Load() }

// Rate returns events per second since the meter started.
// Returns 0 if nothing was marked or no time has elapsed.
func (m *Meter) Rate() float64 {
	start := m.started.Load()
	if start == 0 {
		return 0
	}
	elapsed := time.Since(time.Unix(0, start)).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count.Load()) / elapsed
}

// Reset clears the meter.
func (m *Meter) Reset() {
	m.count.Store(0)
	m.started.Store(0)
}

// WindowCounter is a lock-free sliding-window event counter: Mark is one
// clock read plus one atomic add, cheap enough for per-request accounting
// (the elastic threading controller's burst detection, paper §4.4) where a
// mutex would serialize submitters. The window is n
// slots of d each; Rate sums slots whose epoch still falls inside the
// window. Counts are approximate under slot-rollover races (a concurrent
// Mark can be lost while a slot is being recycled) — it is a monitoring
// figure, not an exact counter.
type WindowCounter struct {
	slotDur int64 // nanos
	slots   []windowSlot
	now     func() int64 // unix nanos
}

type windowSlot struct {
	epoch atomic.Int64 // slot index: unix nanos / slotDur (0 = never used)
	count atomic.Int64
}

// NewWindowCounter creates a counter with n slots of d each (window = n*d).
func NewWindowCounter(n int, d time.Duration) *WindowCounter {
	if n < 2 {
		n = 2
	}
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	return &WindowCounter{
		slotDur: int64(d),
		slots:   make([]windowSlot, n),
		now:     func() int64 { return time.Now().UnixNano() },
	}
}

// SetClock overrides the time source with a unix-nanos function (tests).
func (w *WindowCounter) SetClock(now func() int64) { w.now = now }

// Mark records n events in the current slot.
func (w *WindowCounter) Mark(n int64) {
	idx := w.now() / w.slotDur
	s := &w.slots[int(idx%int64(len(w.slots)))]
	if e := s.epoch.Load(); e != idx {
		// First marker to land in a recycled slot resets it.
		if s.epoch.CompareAndSwap(e, idx) {
			s.count.Store(0)
		}
	}
	s.count.Add(n)
}

// Rate returns events/sec over the populated, still-current slots.
func (w *WindowCounter) Rate() float64 {
	nowIdx := w.now() / w.slotDur
	var total int64
	var populated int
	for i := range w.slots {
		e := w.slots[i].epoch.Load()
		if e != 0 && nowIdx-e < int64(len(w.slots)) {
			total += w.slots[i].count.Load()
			populated++
		}
	}
	if populated == 0 {
		return 0
	}
	secs := float64(populated) * time.Duration(w.slotDur).Seconds()
	return float64(total) / secs
}
