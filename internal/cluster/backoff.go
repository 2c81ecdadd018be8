package cluster

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff computes jittered exponential retry delays. It replaces the
// tight retry loops found in PR 7's plumbing (the coordinator heartbeat
// re-registering every tick on -UNKNOWNNODE, the replica applier
// redialing a dead master on a fixed schedule): repeated failures space
// out exponentially up to Max, and the uniform jitter keeps a fleet of
// nodes that failed together from retrying in lockstep against the
// component that just came back.
//
// Safe for concurrent use; the zero value is usable with defaults.
type Backoff struct {
	// Base is the first delay (default 50ms).
	Base time.Duration
	// Max caps the delay growth (default 2s).
	Max time.Duration
	// Jitter is the uniform fraction added on top of the current delay:
	// next = delay * (1 + rand[0,Jitter)). Default 0.5; negative
	// disables jitter (deterministic tests).
	Jitter float64

	mu  sync.Mutex
	cur time.Duration
	rng *rand.Rand
}

func (b *Backoff) defaults() (time.Duration, time.Duration, float64) {
	base, max, jitter := b.Base, b.Max, b.Jitter
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if jitter == 0 {
		jitter = 0.5
	}
	return base, max, jitter
}

// Next returns the delay to wait before the next retry and advances the
// exponential state.
func (b *Backoff) Next() time.Duration {
	base, max, jitter := b.defaults()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur <= 0 {
		b.cur = base
	}
	d := b.cur
	b.cur *= 2
	if b.cur > max {
		b.cur = max
	}
	if jitter > 0 {
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		d += time.Duration(float64(d) * jitter * b.rng.Float64())
	}
	if d > max {
		d = max
	}
	return d
}

// Reset clears the exponential state after a success: the next failure
// starts again from Base.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.cur = 0
	b.mu.Unlock()
}
