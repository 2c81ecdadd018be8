package cache

import (
	"errors"

	"tierbase/internal/engine"
)

// Cross-tier read-modify-write support. Commands that mutate engine state
// in place (INCR, SETNX, CAS, every collection write) cannot route their
// mutation through Set/Delete — the engine op IS the mutation — so they run
// it through Mutate. A replica installing a streamed collection replaces the
// key whole, reads nothing, and goes through SetEncoded.

// Mutate runs op, an in-place engine mutation of key, and commits what it
// left behind:
//
//  1. The key is faulted in from the storage tier, so op composes with a
//     value that was evicted or predates a restart (hold).
//  2. op runs under key's RMW stripe lock. Without the lock two INCRs could
//     commit their results out of engine order and the storage tier would
//     converge on the older value. From the lock to the commit the key is
//     pinned against capacity eviction (Tiered.pinned): a reader's miss-fill
//     may run the eviction hand onto this stripe at any moment, and a key
//     evicted between op and step 3 would be committed as a delete.
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
	defer t.release(t.hold(key))
	changed, err := op()
	if err != nil || !changed {
		return err
	}
	val, enc, err := t.eng.Encode(key)
	if err != nil && !errors.Is(err, engine.ErrNotFound) {
		return err
	}
	return t.commit([]write{{key: key, val: val, enc: enc, pre: true}}, nil)
}

// SetEncoded makes blob, a collection's typed encoding (engine.Encode), key's
// whole value through every tier: how a replica installs a streamed
// collection. It replaces whatever key held, so unlike Mutate it reads
// nothing, from the engine or storage: the blob is loaded into the engine
// with key locked and pinned, and committed as it arrived.
func (t *Tiered) SetEncoded(key string, blob []byte) error {
	defer t.release(t.pin(key))
	if err := t.eng.LoadEncoded(key, blob); err != nil {
		return err
	}
	return t.commit([]write{{key: key, val: blob, enc: true, pre: true}}, nil)
}

// hold is how an in-place mutation of key begins (Mutate, ExpireAt,
// Persist): it returns with key's RMW stripe lock taken, key pinned against
// capacity eviction, and key resident if any tier has it. The caller defers
// release of the stripe it returns.
//
// The key is warmed before the lock, so that a cold key's storage read does
// not hold up the stripe's other writers. That leaves a window: an eviction
// between the warm and the lock, and an INCR of an evicted 41 would commit 1.
// So once the key can no longer leave, hold looks again, and fetches a key
// the engine lacks there and then. It goes to fetchCoalesced, not Get: Get
// deletes a lapsed key through the tiers under this same lock. A lapsed key
// is still in the engine and needs no fetch (the op will find it absent),
// and a write-back tombstone means the storage copy is the stale one. A key
// no tier has costs a second storage read this way.
func (t *Tiered) hold(key string) (stripe int) {
	t.Warm(key)
	si := t.pin(key)
	if t.opts.Policy != CacheOnly && !t.eng.Exists(key) && !t.eng.Expired(key) {
		if _, dirty := t.dirty.lookup(key); !dirty {
			_, _ = t.fetchCoalesced(key) // as Warm: absent is the best answer left
			t.maybeEvict()
		}
	}
	return si
}

// pin takes key's RMW stripe lock and pins key against capacity eviction.
func (t *Tiered) pin(key string) (stripe int) {
	si := t.eng.ShardIndex(key)
	t.rmw[si].Lock()
	t.mutating[si].Store(&key)
	return si
}

// release ends what hold or pin began on stripe si.
func (t *Tiered) release(si int) {
	t.mutating[si].Store(nil)
	t.rmw[si].Unlock()
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
