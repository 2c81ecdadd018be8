package cache

import (
	"errors"
	"sync/atomic"
	"time"
)

// Storage-tier graceful degradation. The storage tier is a network hop
// away (paper §3's disaggregation), so transient failures — a slow disk,
// a flapping link, a restarting UCS node — are a matter of when, not if.
// Every storage call the tiered store makes — a fill's Get or BatchGet,
// BatchDelete's existence BatchGet, a write-through commit, a write-back
// flush, FlushAll's clear — is an op passed to one function, Tiered.store,
// which runs it once: a failed call returns its error to the caller, and
// nothing sleeps under the caller's RMW stripe locks or the server's gate
// slot. degradeAfter consecutive failed calls trip the store into DEGRADED
// mode, where reads serve from the cache tier only (a fill answers absent
// instead of stalling on a dead disk, BatchDelete returns ErrDegraded) and
// writes still make their one call. One probe per DegradedProbeInterval
// (500 ms by default) keeps testing the storage tier; the first success
// heals the store back to normal.

// ErrDegraded reports a storage read short-circuited because the store
// is in degraded (cache-only) mode. A fill translates it to "absent";
// BatchDelete surfaces it, since it cannot count keys it cannot see.
var ErrDegraded = errors.New("cache: storage degraded, serving cache tier only")

// degradeAfter consecutive failed storage calls trip degraded mode.
const degradeAfter = 3

// storageHealth is the health state behind Tiered.store — all atomics,
// read on every storage call.
type storageHealth struct {
	errors      atomic.Int64 // failed storage calls
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

// failure records a failed call; degradeAfter consecutive failed calls
// trip degraded mode.
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
	DegradedOps      int64
	DegradedTransit  int64
	ConsecutiveFails int64
}

func (h *storageHealth) snapshot() HealthStats {
	return HealthStats{
		Degraded:         h.degraded.Load(),
		StorageErrors:    h.errors.Load(),
		DegradedOps:      h.degradedOps.Load(),
		DegradedTransit:  h.transitions.Load(),
		ConsecutiveFails: h.consecFails.Load(),
	}
}

// store runs one storage call, op, under the degradation policy: every
// call the tiered store makes to its storage tier passes through here, as
// an op handed the store's Storage. Reads are gated first: a degraded store
// short-circuits them (cache-only serving) except for the elected probe.
// The op runs once; its error, if any, is the caller's, and its outcome
// feeds the health state (a success heals, degradeAfter failures in a row
// degrade).
func (t *Tiered) store(read bool, op func(Storage) error) error {
	h := &t.health
	if read && !h.allowRead(t.opts.DegradedProbeInterval) {
		h.degradedOps.Add(1)
		return ErrDegraded
	}
	if err := op(t.opts.Storage); err != nil {
		h.failure()
		return err
	}
	h.success()
	return nil
}
