package cache

import (
	"sync"

	"tierbase/internal/engine"
)

// Write-through implementation (paper §4.1.1).
//
// Three techniques from the paper:
//
//   - Temporary update buffer: the cache tier is NOT updated until the
//     storage write succeeds; concurrent readers keep seeing the previous
//     value, and a storage failure invalidates the entry so subsequent
//     reads refetch from storage. (Our Set carries the full new value, so
//     the "buffer" is the pending write itself.)
//   - Sequential write ordering: a per-key queue admits one in-flight
//     storage write per key; later writes wait behind it, preserving
//     per-key order.
//   - Write coalescing: writes that arrive while one is in flight are
//     merged — only the latest value is written when the leader finishes,
//     and every coalesced waiter is acked by that single storage round
//     trip (the group-commit analog).
//
// The queues are striped along the engine's lock stripes (wtStripe):
// admission for a key takes only its stripe's lock, so hot-key coalescing
// on one stripe never serializes writes on the others. Batch writes
// (BatchPut/BatchDelete) route through the SAME ordering machinery via
// wtBatchCommit: keys with no in-flight leader are claimed by the batch
// (a per-stripe marker, not per-key queue entries — O(stripes) in the
// uncontended case) and committed in one grouped storage round trip;
// keys with a leader piggyback as pending and are covered by that
// leader's (or its drain worker's) commit, and single-key writers that
// find their key under a batch marker piggyback symmetrically. There is
// no ordering bypass — a concurrent Set(k) and a batch containing k
// serialize through k's queue like any two single-key writes.

// wtStripe is one stripe of the write-through ordering queues: the queues
// of every key in the matching engine stripe, behind one lock, plus the
// markers of in-flight batches currently leading keys on this stripe.
type wtStripe struct {
	mu      sync.Mutex
	queues  map[string]*wtQueue
	batches []*wtBatchMark
}

// wtBatchMark is one stripe's record of an in-flight batch commit: the
// batch leads every key in led. A single-key writer that finds its key
// covered piggybacks by materializing a batch-owned queue (see
// coveredByBatchLocked) — so the common uncontended batch posts one
// marker per stripe instead of one queue entry per key.
type wtBatchMark struct {
	// entries is the batch's full op map (shared across the batch's
	// stripes); led is this stripe's led keys. full means led covers every
	// batch key on this stripe, so membership can be tested against
	// entries (O(1)) instead of scanning led.
	entries map[string][]byte
	led     []string
	full    bool
}

// coveredByBatchLocked reports whether an in-flight batch on this stripe
// leads key. Caller holds st.mu.
func (st *wtStripe) coveredByBatchLocked(key string) bool {
	for _, m := range st.batches {
		if m.full {
			if _, ok := m.entries[key]; ok {
				return true
			}
			continue
		}
		for _, k := range m.led {
			if k == key {
				return true
			}
		}
	}
	return false
}

type wtQueue struct {
	inflight bool
	// batchOwned marks a queue materialized under an in-flight batch
	// marker: the batch is the key's leader, and its completion (not a
	// writer goroutine) hands the queue to a drain worker.
	batchOwned bool
	pending    *wtPending
}

type wtPending struct {
	val     []byte
	del     bool
	enc     bool // val is a typed collection blob (already storage-encoded)
	pre     bool // outcome already applied to the primary engine (propagated)
	waiters []chan error
}

// wtStripeFor returns the queue stripe owning key.
func (t *Tiered) wtStripeFor(key string) *wtStripe {
	return t.wt[t.eng.ShardIndex(key)]
}

// writeThrough routes one write (or delete) through the per-key queue on
// the key's stripe. enc marks val as a typed collection blob; pre marks a
// propagated outcome already applied to the primary engine (see rmw.go).
func (t *Tiered) writeThrough(key string, val []byte, del, enc, pre bool) error {
	if t.opts.DisableCoalescing {
		return t.wtCommit(key, val, del, enc, pre)
	}
	st := t.wtStripeFor(key)
	st.mu.Lock()
	q, ok := st.queues[key]
	if !ok && len(st.batches) > 0 && st.coveredByBatchLocked(key) {
		// An in-flight batch leads this key: materialize its queue so we
		// (and later writers) order behind the batch's commit.
		q = &wtQueue{inflight: true, batchOwned: true}
		st.queues[key] = q
		ok = true
	}
	if ok {
		// Piggyback on the in-flight leader: replace the pending value
		// (coalescing) and wait for the commit that covers us.
		ch := t.wtEnqueueLocked(q, val, del, enc, pre)
		st.mu.Unlock()
		return <-ch
	}
	q = &wtQueue{inflight: true}
	st.queues[key] = q
	st.mu.Unlock()

	err := t.wtCommit(key, val, del, enc, pre)
	t.wtFinishLeaderLocked(st, key, true)
	return err
}

// wtEnqueueLocked piggybacks one write behind key's in-flight leader:
// the pending value is replaced (coalescing) and the caller's ack channel
// joins the waiters the covering commit will release. Caller holds the
// stripe lock.
func (t *Tiered) wtEnqueueLocked(q *wtQueue, val []byte, del, enc, pre bool) chan error {
	if q.pending == nil {
		q.pending = &wtPending{}
	} else {
		t.coalesced.Add(1) // an earlier pending value was absorbed
	}
	q.pending.val = val
	q.pending.del = del
	q.pending.enc = enc
	q.pending.pre = pre
	ch := make(chan error, 1)
	q.pending.waiters = append(q.pending.waiters, ch)
	return ch
}

// wtFinishLeaderLocked ends a leader's tenure on key: writes that queued
// up behind it are handed to a drain worker; otherwise the queue retires.
// When lock is true the stripe lock is acquired here (single-key path);
// batch completion calls it with the stripe lock already held.
func (t *Tiered) wtFinishLeaderLocked(st *wtStripe, key string, lock bool) {
	if lock {
		st.mu.Lock()
		defer st.mu.Unlock()
	}
	q := st.queues[key]
	if q.pending != nil {
		next := q.pending
		q.pending = nil
		go t.wtDrain(st, key, q, next)
		return
	}
	q.inflight = false
	delete(st.queues, key)
}

// wtDrain commits coalesced rounds until the queue empties.
func (t *Tiered) wtDrain(st *wtStripe, key string, q *wtQueue, cur *wtPending) {
	for {
		err := t.wtCommit(key, cur.val, cur.del, cur.enc, cur.pre)
		for _, ch := range cur.waiters {
			ch <- err
		}
		st.mu.Lock()
		if q.pending != nil {
			cur = q.pending
			q.pending = nil
			st.mu.Unlock()
			continue
		}
		q.inflight = false
		delete(st.queues, key)
		st.mu.Unlock()
		return
	}
}

// wtCommit performs one synchronous storage write and, on success, applies
// the result to the cache tier; on failure it invalidates the cache entry.
// Raw string values are escaped on the way to storage so they never
// collide with typed collection blobs; pre-applied (propagated) outcomes
// skip the primary-engine apply (rmw.go).
func (t *Tiered) wtCommit(key string, val []byte, del, enc, pre bool) error {
	var err error
	if del {
		err = t.opts.Storage.Delete(key)
	} else {
		stored := val
		if !enc {
			stored = engine.EscapeStringValue(val)
		}
		err = t.opts.Storage.Put(key, stored)
	}
	if err != nil {
		t.invalidate(key)
		return err
	}
	t.applyToCache(key, val, del, pre)
	return nil
}

// --- unified batch ordering ---

// wtBatchCommit applies a whole batch of write-through ops (entries maps
// key to new value; nil = delete; uniq lists the keys, duplicates already
// collapsed) through the per-key queues:
//
//   - Keys with no in-flight leader are claimed by this call (it becomes
//     their leader) and commit in ONE grouped storage round trip.
//   - Keys with an in-flight leader piggyback as that key's pending write
//     and are covered by the leader's commit — exactly as a single-key
//     Set would be.
//
// Per-key ordering with concurrent single-key writes is therefore the
// queue's ordering; the old "batches bypass the queues, last storage
// writer wins" caveat is gone. Returns the first error among the grouped
// commit and the piggybacked acks.
func (t *Tiered) wtBatchCommit(uniq []string, entries map[string][]byte) error {
	if t.opts.DisableCoalescing {
		return t.wtCommitGroup(uniq, entries)
	}
	if len(uniq) == 1 {
		// A batch of one is a single-key write; skip the marker machinery.
		k := uniq[0]
		v := entries[k]
		return t.writeThrough(k, v, v == nil, false, false)
	}

	// Admission: one stripe lock per touched stripe. The uncontended fast
	// path (no queues, no other batch markers on the stripe) leads the
	// whole stripe group by posting ONE marker — no per-key bookkeeping.
	// On a contended stripe, keys with an in-flight leader (queue or
	// another batch's marker) piggyback; the rest are led under a partial
	// marker.
	type stripeMark struct {
		st *wtStripe
		m  *wtBatchMark
	}
	var marks []stripeMark
	// markSlab backs every posted marker in one allocation; it never
	// regrows (cap = touched stripes at most), so marker pointers are
	// stable.
	var markSlab []wtBatchMark
	post := func(st *wtStripe, led []string, full bool) {
		if markSlab == nil {
			n := len(uniq)
			if nsh := len(t.wt); nsh < n {
				n = nsh
			}
			markSlab = make([]wtBatchMark, 0, n)
		}
		markSlab = append(markSlab, wtBatchMark{entries: entries, led: led, full: full})
		m := &markSlab[len(markSlab)-1]
		st.batches = append(st.batches, m)
		marks = append(marks, stripeMark{st, m})
	}
	nLed := 0
	var waits []chan error
	t.eng.GroupKeysByShard(uniq, func(si int, group []string) {
		st := t.wt[si]
		st.mu.Lock()
		if len(st.queues) == 0 && len(st.batches) == 0 {
			post(st, group, true)
			st.mu.Unlock()
			nLed += len(group)
			return
		}
		// Contended stripe: piggybacked keys filter out of the group in
		// place (the group subslice is ours alone), the rest are led.
		led := group[:0]
		for _, k := range group {
			if q, ok := st.queues[k]; ok {
				v := entries[k]
				waits = append(waits, t.wtEnqueueLocked(q, v, v == nil, false, false))
				continue
			}
			if st.coveredByBatchLocked(k) {
				q := &wtQueue{inflight: true, batchOwned: true}
				st.queues[k] = q
				v := entries[k]
				waits = append(waits, t.wtEnqueueLocked(q, v, v == nil, false, false))
				continue
			}
			led = append(led, k)
		}
		if len(led) > 0 {
			post(st, led, len(led) == len(group))
			nLed += len(led)
		}
		st.mu.Unlock()
	})

	var err error
	if nLed > 0 {
		ledEntries := entries
		var led []string
		if nLed < len(uniq) {
			ledEntries = make(map[string][]byte, nLed)
			led = make([]string, 0, nLed)
			for _, sm := range marks {
				for _, k := range sm.m.led {
					ledEntries[k] = entries[k]
					led = append(led, k)
				}
			}
		} else {
			led = uniq
		}
		err = t.wtCommitGroup(led, ledEntries)
		// Unpost each marker and end the led keys' tenure. Writers that
		// arrived during the round trip materialized batch-owned queues;
		// hand those to drain workers. A stripe with no queues saw no
		// contention and needs no per-key work at all.
		for _, sm := range marks {
			st := sm.st
			st.mu.Lock()
			for i, m := range st.batches {
				if m == sm.m {
					st.batches = append(st.batches[:i], st.batches[i+1:]...)
					break
				}
			}
			if len(st.queues) > 0 {
				for _, k := range sm.m.led {
					if q, ok := st.queues[k]; ok && q.batchOwned {
						q.batchOwned = false
						t.wtFinishLeaderLocked(st, k, false)
					}
				}
			}
			st.mu.Unlock()
		}
	}
	for _, ch := range waits {
		if werr := <-ch; werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// wtCommitGroup is the grouped analog of wtCommit: one storage round trip
// for the whole key group — Storage.BatchDelete when every op is a delete,
// Storage.BatchPut otherwise (its nil-value-deletes contract carries mixed
// batches) — then the batch applies to the cache tier on success, or every
// key invalidates on failure (the per-key failure contract, batch-wide).
func (t *Tiered) wtCommitGroup(keys []string, entries map[string][]byte) error {
	allDel := true
	for _, k := range keys {
		if entries[k] != nil {
			allDel = false
			break
		}
	}
	var err error
	if allDel {
		err = t.opts.Storage.BatchDelete(keys)
	} else {
		err = t.opts.Storage.BatchPut(escapeEntries(entries))
	}
	if err != nil {
		for _, k := range keys {
			t.invalidate(k)
		}
		return err
	}
	t.applyBatchToCache(entries)
	return nil
}

// escapeEntries returns entries with any typed-marker-colliding string
// value escaped for storage. The common case (no collisions) returns the
// input map untouched; otherwise a shallow copy is built so the caller's
// map — which later applies to the cache tier — keeps the raw values.
func escapeEntries(entries map[string][]byte) map[string][]byte {
	var escaped map[string][]byte
	for k, v := range entries {
		ev := engine.EscapeStringValue(v)
		if len(ev) == len(v) {
			continue
		}
		if escaped == nil {
			escaped = make(map[string][]byte, len(entries))
			for k2, v2 := range entries {
				escaped[k2] = v2
			}
		}
		escaped[k] = ev
	}
	if escaped != nil {
		return escaped
	}
	return entries
}
