package cache

import (
	"errors"

	"tierbase/internal/engine"
)

// Cross-tier read-modify-write support. Commands that mutate engine state
// in place (INCR, SETNX, CAS, every collection write, a replica installing
// a streamed collection) cannot route their mutation through Set/Delete —
// the engine op IS the mutation — so they run it through Mutate.

// Mutate runs op, an in-place engine mutation of key, and commits what it
// left behind:
//
//  1. Warm: the key is faulted in from the storage tier, so op composes
//     with a value that was evicted or predates a restart.
//  2. op runs under key's RMW stripe lock. Without the lock two INCRs could
//     commit their results out of engine order and the storage tier would
//     converge on the older value. From here to the commit the key is pinned
//     against capacity eviction (Tiered.pinned): a reader's miss-fill may
//     run the eviction hand onto this stripe at any moment, and a key evicted
//     between op and step 3 would be committed as a delete.
//  3. If op reports a change, the key's current engine state — a string, a
//     collection as a typed blob, or its absence (a collection emptied by
//     its last pop) — takes the route a Set or Delete takes (commit, in
//     tiered.go): to storage by policy and to the replication sink, but
//     NOT back into the engine. The state is read from there, and
//     replaying a captured value could roll back a newer concurrent update.
//
// op must not call back into the store. An error from op, or a change it
// does not report, commits nothing.
func (t *Tiered) Mutate(key string, op func() (changed bool, err error)) error {
	t.Warm(key)
	si := t.eng.ShardIndex(key)
	t.rmw[si].Lock()
	defer t.rmw[si].Unlock()
	t.mutating[si].Store(&key)
	defer t.mutating[si].Store(nil)
	changed, err := op()
	if err != nil || !changed {
		return err
	}
	val, enc, err := t.eng.Encode(key)
	if err != nil && !errors.Is(err, engine.ErrNotFound) {
		return err
	}
	return t.commit(key, val, err != nil, enc, true)
}

// Warm faults key into the cache tier from the storage tier if it is not
// resident, so a subsequent engine read observes tiered state. Typed blobs
// install as collections; misses and storage errors are ignored (the read
// then sees an absent key, which is the best available answer).
func (t *Tiered) Warm(key string) {
	if t.opts.Policy == CacheOnly || t.eng.Exists(key) {
		return
	}
	_, _ = t.Get(key)
}
