package cache

import "tierbase/internal/engine"

// Cross-tier read-modify-write support. Commands that mutate engine state
// in place (INCR, SETNX, CAS, every collection write) cannot route their
// mutation through Set/Delete — the engine op IS the mutation — so the
// server runs them as:
//
//	tiered.Warm(key)                 // fault storage state into the engine
//	tiered.Locked(key, func() error {
//	    ... engine op ...
//	    return tiered.PropagateX(key, result)
//	})
//
// Warm makes the engine authoritative for the key before the op (so INCR
// composes with a value that was evicted, or that predates a restart).
// Locked serializes the op+propagate pair per stripe: without it, two
// INCRs could commit their captured results out of engine order and the
// storage tier would converge on the older value. Propagate* then hands
// the outcome to commit (tiered.go) — the same route a Set takes, to
// storage by policy and to the replication sink — WITHOUT re-applying it
// to the engine: the op already ran there, and replaying a captured value
// could briefly roll back a newer concurrent update.

// Warm faults key into the cache tier from the storage tier if it is not
// resident, so a subsequent engine op observes tiered state. Typed blobs
// install as collections; misses and storage errors are ignored (the op
// then sees an absent key, which is the best available answer).
func (t *Tiered) Warm(key string) {
	if t.opts.Policy == CacheOnly || t.eng.Exists(key) {
		return
	}
	_, _ = t.Get(key)
}

// Locked runs fn under key's RMW stripe lock, serializing it against
// other Locked calls for keys on the same engine stripe.
func (t *Tiered) Locked(key string, fn func() error) error {
	defer t.lockKey(key).Unlock()
	return fn()
}

// PropagateString commits an engine-applied string outcome (INCR result,
// SETNX/CAS value). Like the other Propagate calls it runs inside Locked.
func (t *Tiered) PropagateString(key string, val []byte) error {
	return t.commit(key, val, false, false, true)
}

// PropagateEncoded commits a typed collection blob (engine.EncodeCollection
// output).
func (t *Tiered) PropagateEncoded(key string, blob []byte) error {
	return t.commit(key, blob, false, true, true)
}

// PropagateDelete commits an engine-applied deletion (a collection emptied
// by its last pop).
func (t *Tiered) PropagateDelete(key string) error {
	return t.commit(key, nil, true, false, true)
}

// decodeStorageValue interprets a raw storage value for a string reader:
// typed blobs surface as engine.ErrWrongType (the key is a collection),
// escaped strings unescape. The returned slice may alias v.
func decodeStorageValue(v []byte) ([]byte, error) {
	if engine.IsTypedValue(v) {
		return nil, engine.ErrWrongType
	}
	return engine.UnescapeStringValue(v), nil
}
