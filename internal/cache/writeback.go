package cache

import (
	"sync"
	"time"

	"tierbase/internal/engine"
)

// Write-back implementation (paper §4.1.2).
//
// Updates ack from the cache tier immediately; dirty entries propagate to
// storage in batches. The paper's four mechanisms:
//
//   - Replication of cache: every committed mutation is reported to the
//     OpSink (commit in tiered.go), which the server streams to replicas;
//     with semi-sync acks the reply waits for them.
//   - Managing dirty data: dirty size is bounded (MaxDirty) with
//     backpressure, and a maximum flush interval bounds staleness.
//   - Optimizing update: one BatchPut per flush round; multiple updates to
//     the same key naturally merge in the dirty map.
//   - Deferred cache-fetching: not done. Only Tiered.Update misses while
//     updating, and it holds its key's RMW stripe lock while it reads, so
//     gathering misses into a BatchGet would stall the stripe for the
//     gather window; an update miss reads storage like any other miss.
//
// The dirty set is striped along the engine's lock stripes (dirtyStripe):
// each stripe owns its entries, its generation counter, its backpressure
// budget (MaxDirty split evenly, ceil) and its own cond. A writer blocks
// only when ITS stripe is saturated, and a flush wakes only the writers
// of stripes that actually freed room — the old single dirtyCond woke
// every blocked writer on every flush (a thundering herd) even when only
// one stripe's slots freed.

// dirtyStripe is one stripe of the write-back dirty set.
type dirtyStripe struct {
	mu      sync.Mutex
	cond    *sync.Cond // waited on by writers when this stripe is full
	entries map[string]*dirtyEntry
	gen     uint64 // per-stripe generation; stamps entries for flush checks
	// pinned is holds, bound once (write-back only, else nil): what
	// engine.Evict asks about each key, without a closure per eviction step.
	pinned func(key []byte) bool
}

// holds reports whether key is dirty in this stripe.
func (ds *dirtyStripe) holds(key []byte) bool {
	ds.mu.Lock()
	_, ok := ds.entries[string(key)]
	ds.mu.Unlock()
	return ok
}

// dirtyStripeFor returns the dirty stripe owning key.
func (t *Tiered) dirtyStripeFor(key string) *dirtyStripe {
	return t.dirtyStripes[t.eng.ShardIndex(key)]
}

// waitStripeRoomLocked blocks until ds has room for another dirty entry
// (or the store closes). Caller holds ds.mu; returns with it held.
// Reports whether the store closed while waiting.
func (t *Tiered) waitStripeRoomLocked(ds *dirtyStripe) (closed bool) {
	if len(ds.entries) >= t.stripeMaxDirty && !t.closed.Load() {
		t.bpWaits.Add(1) // count blocked writers, not wakeups
		for len(ds.entries) >= t.stripeMaxDirty && !t.closed.Load() {
			t.wakeFlusher()
			ds.cond.Wait()
		}
	}
	return t.closed.Load()
}

// setDirtyLocked records key as dirty in ds (nil stored = tombstone; enc
// marks a typed collection blob), maintaining the cross-stripe count.
// Caller holds ds.mu.
func (t *Tiered) setDirtyLocked(ds *dirtyStripe, key string, stored []byte, enc bool) {
	ds.gen++
	if old, existed := ds.entries[key]; existed {
		t.dirtyBytes.Add(-dirtyEntryBytes(key, old.val))
	} else {
		t.dirtyCount.Add(1)
	}
	t.dirtyBytes.Add(dirtyEntryBytes(key, stored))
	ds.entries[key] = &dirtyEntry{val: stored, gen: ds.gen, enc: enc}
}

// dirtyEntryBytes approximates one dirty entry's heap footprint: the
// copied value buffer, the key, and the entry struct/map overhead.
// TestDirtyBytesTracksHeap holds the sum to the heap.
func dirtyEntryBytes(key string, val []byte) int64 {
	// The dirtyEntry (40 B in a 48 B class), its map slot (25 B at 7/8
	// load, 50 B after the map doubles) and the rounding of key and value.
	// Measured 85-107 B.
	const entryOverhead = 96
	return int64(len(key) + len(val) + entryOverhead)
}

// wakeFlusher nudges the flush loop without blocking (the channel holds
// one pending wake; an already-pending wake is enough).
func (t *Tiered) wakeFlusher() {
	select {
	case t.flushWake <- struct{}{}:
	default:
	}
}

// writeBack applies one write (or delete) under the write-back policy.
// enc marks val as a typed collection blob; pre marks a propagated outcome
// already applied to the primary engine (see rmw.go).
func (t *Tiered) writeBack(key string, val []byte, del, enc, pre bool) error {
	// Backpressure: hold the writer while ITS stripe of the dirty set is
	// saturated ("a backpressure mechanism is activated when dirty data
	// approaches a predefined threshold"). Other stripes' writers are
	// unaffected.
	ds := t.dirtyStripeFor(key)
	ds.mu.Lock()
	if t.waitStripeRoomLocked(ds) {
		ds.mu.Unlock()
		return ErrClosed
	}
	var stored []byte
	if !del {
		stored = copyBytes(val)
		if stored == nil {
			stored = []byte{} // empty value, not a tombstone
		}
	}
	t.setDirtyLocked(ds, key, stored, enc)
	ds.mu.Unlock()

	t.applyToCache(key, val, del, pre)
	if t.dirtyCount.Load() >= int64(t.opts.FlushBatch) {
		t.wakeFlusher()
	}
	return nil
}

// flushLoop is the background dirty-data propagator. Writers nudge it
// through flushWake when a full batch accumulates (an earlier design
// bridged the dirty cond into a channel with a helper goroutine, but that
// bridge spins at 100% CPU whenever the dirty set stays above FlushBatch);
// the ticker bounds staleness when traffic trickles in below batch size.
func (t *Tiered) flushLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-ticker.C:
		case <-t.flushWake:
		}
		if err := t.flushDirty(t.opts.FlushBatch); err != nil {
			continue // storage failing: retry on the next tick, don't spin
		}
		// Keep draining while a full batch remains so a burst doesn't
		// wait out the ticker FlushBatch keys at a time.
		for t.dirtyCount.Load() >= int64(t.opts.FlushBatch) {
			select {
			case <-t.stopCh:
				return
			default:
			}
			if err := t.flushDirty(t.opts.FlushBatch); err != nil {
				break // back to the select; ticker provides the backoff
			}
		}
	}
}

// flushDirty writes up to max dirty entries (0 = all) to storage in one
// grouped round trip. Entries collect from the stripes round-robin,
// starting at a rotating cursor so a partial flush never starves the
// high-numbered stripes; entries overwritten during the flush stay dirty
// (per-stripe generation check). After the round trip, each drained
// stripe clears its flushed entries and wakes ONLY its own backpressured
// writers — stripes that contributed nothing stay asleep.
func (t *Tiered) flushDirty(max int) error {
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	pending := int(t.dirtyCount.Load())
	if pending == 0 {
		return nil
	}
	if max > 0 && pending > max {
		pending = max
	}
	nsh := len(t.dirtyStripes)
	start := int(t.flushCursor.Add(1)-1) % nsh
	batch := make(map[string][]byte, pending)
	// Collection is stripe-sequential, so the flushed (key, gen) records
	// land in flat slices with one contiguous range per stripe — no
	// per-stripe maps to allocate each round.
	type stripeRange struct{ si, lo, hi int }
	recs := make([]flushRec, 0, pending)
	var ranges []stripeRange
collect:
	for i := 0; i < nsh; i++ {
		si := (start + i) % nsh
		ds := t.dirtyStripes[si]
		lo := len(recs)
		ds.mu.Lock()
		for k, e := range ds.entries {
			if max > 0 && len(batch) >= max {
				ds.mu.Unlock()
				if len(recs) > lo {
					ranges = append(ranges, stripeRange{si, lo, len(recs)})
				}
				break collect
			}
			v := e.val
			if !e.enc {
				// Raw strings escape on the way to storage so they never
				// collide with typed collection blobs.
				v = engine.EscapeStringValue(v)
			}
			batch[k] = v
			recs = append(recs, flushRec{key: k, gen: e.gen})
		}
		ds.mu.Unlock()
		if len(recs) > lo {
			ranges = append(ranges, stripeRange{si, lo, len(recs)})
		}
	}
	if len(batch) == 0 {
		return nil
	}

	if err := t.opts.Storage.BatchPut(batch); err != nil {
		return err
	}

	for _, r := range ranges {
		ds := t.dirtyStripes[r.si]
		removed := 0
		ds.mu.Lock()
		for _, rec := range recs[r.lo:r.hi] {
			if e, ok := ds.entries[rec.key]; ok && e.gen == rec.gen {
				t.dirtyBytes.Add(-dirtyEntryBytes(rec.key, e.val))
				delete(ds.entries, rec.key)
				removed++
			}
		}
		if removed > 0 {
			t.dirtyCount.Add(int64(-removed))
			ds.cond.Broadcast() // release THIS stripe's waiters only
		}
		ds.mu.Unlock()
	}
	t.flushed.Add(int64(len(batch)))
	t.batches.Add(1)
	return nil
}

// flushRec is one flushed entry's generation stamp, checked before the
// post-flush delete so entries overwritten mid-flush stay dirty.
type flushRec struct {
	key string
	gen uint64
}

// FlushDirty forces all dirty entries to storage (checkpoint / tests).
func (t *Tiered) FlushDirty() error {
	for t.dirtyCount.Load() > 0 {
		if err := t.flushDirty(0); err != nil {
			return err
		}
	}
	return nil
}
