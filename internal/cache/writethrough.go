package cache

import "tierbase/internal/engine"

// Write-through implementation (paper §4.1.1).
//
// The paper names three techniques; two live here, one moved out:
//
//   - Temporary update buffer: the cache tier is NOT updated until the
//     storage write succeeds; concurrent readers keep seeing the previous
//     value, and a storage failure invalidates the entry so subsequent
//     reads refetch from storage. (Our Set carries the full new value, so
//     the "buffer" is the pending write itself.)
//   - Sequential write ordering: every write entry point holds the RMW
//     lock of each stripe it writes (Tiered.rmw) from before the storage
//     call until after the replication sink append, so one key has at most
//     one storage write in flight and storage, cache and sink see its
//     writes in one order. wtCommit and wtCommitGroup run under that lock
//     and need no ordering of their own.
//   - Write coalescing: not done in this layer. Per-key queues that merged
//     writes arriving behind an in-flight leader lived here until the
//     stripe lock became the ordering rule (PR 7); under it two writes to
//     one stripe are never in flight together, so nothing could queue and
//     the ledger read 0 coalesced writes on every run. Concurrent writers
//     still share WAL appends through the LSM's group commit
//     (lsm/batch.go). ROADMAP "Parked" says what would bring it back.

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
	t.applyBatchToCache(keys, entries)
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
