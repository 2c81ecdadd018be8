package metrics

import "sync/atomic"

// MaxGauge tracks a running maximum (e.g. the worst replication-frame
// write stall, the longest master-side write blocked behind a slow
// replica link). Lock-free: Observe is a CAS loop on the hot path, Load
// a single atomic. The zero value is ready to use.
type MaxGauge struct {
	max atomic.Int64
}

// Observe records v if it exceeds the current maximum.
func (g *MaxGauge) Observe(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur {
			return
		}
		if g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the maximum observed (0 if none).
func (g *MaxGauge) Load() int64 { return g.max.Load() }
