package cache

import (
	"maps"

	"tierbase/internal/engine"
)

// Write-through implementation (paper §4.1.1).
//
// The paper names three techniques; two live here, one moved out:
//
//   - Temporary update buffer: the cache tier is NOT updated until the
//     storage write succeeds; concurrent readers keep seeing the previous
//     value, and a storage failure invalidates the entry so subsequent
//     reads refetch from storage. (Our Set carries the full new value, so
//     the "buffer" is the pending write itself; an in-place op's outcome is
//     in the engine already, rmw.go.)
//   - Sequential write ordering: every write entry point holds the RMW
//     lock of each stripe it writes (Tiered.rmw) from before the storage
//     call until after the replication sink append, so one key has at most
//     one storage write in flight and storage, cache and sink see its
//     writes in one order. wtCommit runs under those locks, for one key or
//     a batch alike, and needs no ordering of its own.
//   - Write coalescing: not done in this layer. Per-key queues that merged
//     writes arriving behind an in-flight leader lived here until the
//     stripe lock became the ordering rule (PR 7); under it two writes to
//     one stripe are never in flight together, so nothing could queue and
//     the ledger read 0 coalesced writes on every run. The LSM below
//     commits one batch at a time (lsm/batch.go), so concurrent writers
//     do not share WAL appends there either. ROADMAP "Parked" says what
//     would bring coalescing back.

// wtCommit makes a write-through commit's one storage call, through store:
// Put or Delete for one key; for a batch, BatchDelete when every write
// deletes, else BatchPut of the caller's map (nil values delete). Its
// arguments are built outside the op. Raw strings are escaped
// so they never collide with typed blobs. On failure every key of ws is
// invalidated in the cache tier.
func (t *Tiered) wtCommit(ws []write, entries map[string][]byte) error {
	var op func(Storage) error
	switch {
	case len(ws) != 1 && allDeletes(ws):
		keys := make([]string, len(ws))
		for i, w := range ws {
			keys[i] = w.key
		}
		op = func(s Storage) error { return s.BatchDelete(keys) }
	case len(ws) != 1:
		entries = escapeEntries(entries)
		op = func(s Storage) error { return s.BatchPut(entries) }
	case ws[0].val == nil:
		op = func(s Storage) error { return s.Delete(ws[0].key) }
	default:
		stored := ws[0].val
		if !ws[0].enc {
			stored = engine.EscapeStringValue(stored)
		}
		op = func(s Storage) error { return s.Put(ws[0].key, stored) }
	}
	err := t.store(false, op)
	if err != nil {
		for _, w := range ws {
			t.eng.Del(w.key)
		}
	}
	return err
}

// allDeletes reports whether every write of ws deletes.
func allDeletes(ws []write) bool {
	for _, w := range ws {
		if w.val != nil {
			return false
		}
	}
	return true
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
			escaped = maps.Clone(entries)
		}
		escaped[k] = ev
	}
	if escaped != nil {
		return escaped
	}
	return entries
}
