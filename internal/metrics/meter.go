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
