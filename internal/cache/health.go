package cache

import (
	"errors"
	"sync/atomic"
	"time"
)

// Storage-tier graceful degradation. The storage tier is a network hop
// away (paper §3's disaggregation), so transient failures — a slow disk,
// a flapping link, a restarting UCS node — are a matter of when, not if.
// Rather than surfacing every blip to clients, every storage call the
// tiered store makes — a fill's Get or BatchGet, BatchDelete's existence
// BatchGet, a write-through commit, a write-back flush, FlushAll's clear —
// is an op passed to one function, Tiered.store: it gets a bounded
// retry-with-backoff (storageRetries, doubling from storageRetryBackoff),
// and degradeAfter consecutive failed attempts (one call that fails every
// attempt) trip the store into DEGRADED mode, where reads serve from the
// cache tier only (a fill answers absent instead of stalling on a dead
// disk, BatchDelete returns ErrDegraded) and writes make one attempt with
// no retries. One probe per DegradedProbeInterval (500 ms by default)
// keeps testing the storage tier; the first success heals the store back
// to normal. Backoff sleeps run under the caller's RMW stripe
// locks, and on the server under its gate slot.

// ErrDegraded reports a storage read short-circuited because the store
// is in degraded (cache-only) mode. A fill translates it to "absent";
// BatchDelete surfaces it, since it cannot count keys it cannot see.
var ErrDegraded = errors.New("cache: storage degraded, serving cache tier only")

// The retry policy of every storage call.
const (
	storageRetries      = 2
	storageRetryBackoff = 5 * time.Millisecond
	degradeAfter        = 3
)

// storageHealth is the health state behind Tiered.store — all atomics,
// read on every storage call.
type storageHealth struct {
	errors      atomic.Int64 // failed storage attempts (each retry counts)
	retries     atomic.Int64 // retry attempts after a failure
	degradedOps atomic.Int64 // reads short-circuited while degraded
	transitions atomic.Int64 // healthy -> degraded trips
	consecFails atomic.Int64 // consecutive failed calls (resets on success)
	lastProbe   atomic.Int64 // UnixNano of the last degraded-mode probe
	degraded    atomic.Bool
}

// success records a storage call that went through, healing a degraded
// store.
func (h *storageHealth) success() {
	h.consecFails.Store(0)
	h.degraded.CompareAndSwap(true, false)
}

// failure records a failed attempt; degradeAfter consecutive failed
// attempts trip degraded mode.
func (h *storageHealth) failure() {
	h.errors.Add(1)
	if h.consecFails.Add(1) >= degradeAfter {
		if h.degraded.CompareAndSwap(false, true) {
			h.transitions.Add(1)
		}
	}
}

// allowRead reports whether a storage read may proceed: always when
// healthy, one probe per interval when degraded (the CAS elects exactly
// one prober; everyone else serves cache-only).
func (h *storageHealth) allowRead(probeInterval time.Duration) bool {
	if !h.degraded.Load() {
		return true
	}
	now := time.Now().UnixNano()
	last := h.lastProbe.Load()
	return now-last >= int64(probeInterval) && h.lastProbe.CompareAndSwap(last, now)
}

// HealthStats is a point-in-time snapshot of storage-tier health,
// surfaced through INFO health.
type HealthStats struct {
	Degraded         bool
	StorageErrors    int64
	StorageRetries   int64
	DegradedOps      int64
	DegradedTransit  int64
	ConsecutiveFails int64
}

func (h *storageHealth) snapshot() HealthStats {
	return HealthStats{
		Degraded:         h.degraded.Load(),
		StorageErrors:    h.errors.Load(),
		StorageRetries:   h.retries.Load(),
		DegradedOps:      h.degradedOps.Load(),
		DegradedTransit:  h.transitions.Load(),
		ConsecutiveFails: h.consecFails.Load(),
	}
}

// store runs one storage call, op, under the retry and degradation policy:
// every call the tiered store makes to its storage tier passes through
// here, as an op handed the store's Storage. Reads are gated first: a
// degraded store short-circuits them (cache-only serving) except for the
// elected probe. A failed attempt is retried after a backoff that doubles
// from storageRetryBackoff, up to storageRetries times. While degraded,
// ops fail fast — a single attempt with no retry sleeps — so a dead disk
// costs one quick error, not retries*backoff per call; the attempt itself
// still doubles as a recovery signal. The sleeps run under whatever locks
// the caller holds.
func (t *Tiered) store(read bool, op func(Storage) error) error {
	h := &t.health
	if read && !h.allowRead(t.opts.DegradedProbeInterval) {
		h.degradedOps.Add(1)
		return ErrDegraded
	}
	attempts := storageRetries
	if h.degraded.Load() {
		attempts = 0
	}
	for i := 0; ; i++ {
		err := op(t.opts.Storage)
		if err == nil {
			h.success()
			return nil
		}
		h.failure()
		if i >= attempts {
			return err
		}
		h.retries.Add(1)
		time.Sleep(storageRetryBackoff << i)
	}
}
