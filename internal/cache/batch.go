package cache

import (
	"errors"

	"tierbase/internal/engine"
)

// Batch operations on the tiered store: the cache-tier leg of the
// MGET/MSET fast path. Cache hits resolve through the engine's lock-striped
// MGet (one stripe lock per touched shard); the remaining misses make a
// single Storage.BatchGet round trip — the optimization the paper credits
// for lowering PC_miss — with singleflight dedup against concurrent
// fetches of the same keys. Writes take the RMW locks of the stripes they
// touch and go through commit (tiered.go), as one key does: one storage
// round trip (write-through) or one admission to the dirty set (write-back).

// dedupeKeys drops duplicate keys while preserving first-occurrence
// order; a duplicate-free input is returned as-is.
func dedupeKeys(keys []string) []string {
	if len(keys) <= 1 {
		return keys
	}
	seen := make(map[string]struct{}, len(keys))
	uniq := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		uniq = append(uniq, k)
	}
	return uniq
}

// BatchGet fetches many keys, consulting the cache tier first and the
// storage tier (one round trip) for the misses. The result maps key to
// value; absent keys map to nil. Duplicate keys are served once.
func (t *Tiered) BatchGet(keys []string) (map[string][]byte, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	t.reqs.Add(int64(len(keys)))
	out := make(map[string][]byte, len(keys))
	uniq := dedupeKeys(keys)

	// 1. Cache tier, one stripe lock per touched shard. Wrong-typed keys
	// report nil (Redis MGET semantics) but are NOT misses: fetching them
	// from storage would clobber a live list/set/hash with stale bytes.
	vals, wrongType, err := t.eng.MGetDetail(uniq)
	if err != nil {
		return nil, err
	}
	var missing []string
	for i, k := range uniq {
		if vals[i] != nil {
			out[k] = vals[i]
			t.hits.Add(1)
			continue
		}
		out[k] = nil
		if wrongType[i] {
			continue
		}
		t.misses.Add(1)
		missing = append(missing, k)
	}
	if len(missing) == 0 || t.opts.Policy == CacheOnly {
		return out, nil
	}

	// 2. Write-back dirty state shadows storage (unflushed values and
	// delete tombstones must win over what storage still holds).
	if t.opts.Policy == WriteBack {
		live := missing[:0]
		for _, k := range missing {
			e, ok := t.dirty.lookup(k)
			if !ok {
				live = append(live, k)
			} else if e.val != nil && !e.enc {
				out[k] = copyBytes(e.val)
			} // else a tombstone or collection blob: stays nil
		}
		missing = live
		if len(missing) == 0 {
			return out, nil
		}
	}

	// 3. Storage tier: join flights already in progress, lead the rest in
	// a single BatchGet round trip (shared singleflight core with Get).
	lead, join := t.splitFlights(missing)
	var fetchErr error
	if len(lead) > 0 {
		fetch := make([]string, 0, len(lead))
		for k := range lead {
			fetch = append(fetch, k)
		}
		svals, err := t.opts.Storage.BatchGet(fetch)
		t.publishFlights(lead, svals, err)
		if !errors.Is(err, ErrDegraded) {
			// Degraded (cache-only) mode: the misses stay nil rather
			// than failing the whole MGET — cache hits above are still
			// the best available answer.
			fetchErr = err
		}
		for k, f := range lead {
			if f.err == nil {
				out[k] = f.val
			}
		}
	}
	for k, f := range join {
		v, err := t.awaitFlight(f)
		switch {
		case err == ErrNotFound || err == engine.ErrWrongType || errors.Is(err, ErrDegraded):
			// stays nil (absent, a collection key, or degraded cache-only)
		case err != nil:
			if fetchErr == nil {
				fetchErr = err
			}
		default:
			out[k] = v
		}
	}
	if fetchErr != nil {
		return nil, fetchErr
	}
	t.maybeEvict()
	return out, nil
}

// BatchPut applies many writes according to the configured policy; a nil
// value deletes the key (matching Storage.BatchPut semantics). It holds the
// RMW lock of every stripe the batch touches for the whole commit, exactly
// as Set does for one key — see commit for what happens under them.
// Readers may observe some of the batch's keys before others: a batch is
// ordered per key, not atomic across keys.
func (t *Tiered) BatchPut(entries map[string][]byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	t.reqs.Add(int64(len(entries)))
	ws := make([]write, 0, len(entries))
	for k, v := range entries {
		ws = append(ws, write{key: k, val: v})
	}
	defer t.lockKeys(ws)()
	return t.commit(ws, entries)
}

// BatchDelete removes keys through every tier in one pass, returning how
// many existed — the RESP DEL reply. A key counts when it was live in the
// cache tier, held as an unflushed dirty value, or (for keys the cache no
// longer knew) present in the storage tier; that last group costs one
// extra Storage.BatchGet round trip, which is what makes the count
// correct for keys that were evicted to storage. Duplicate keys count at
// most once (Redis DEL semantics).
//
// Like BatchPut it holds the RMW locks of the stripes it touches from the
// existence check through the commit, so no other write to these keys
// lands between the count and the delete.
func (t *Tiered) BatchDelete(keys []string) (int, error) {
	if t.closed.Load() {
		return 0, ErrClosed
	}
	t.reqs.Add(int64(len(keys)))
	uniq := dedupeKeys(keys)
	if len(uniq) == 0 {
		return 0, nil
	}
	ws := make([]write, len(uniq))
	for i, k := range uniq {
		ws[i].key = k // no value: a delete
	}
	defer t.lockKeys(ws)()

	// Establish per-key existence before mutating. Keys the cache holds
	// count immediately; the rest consult write-back dirty state and, as a
	// last resort, one storage BatchGet round trip.
	n := 0
	var unknown []string
	for i, live := range t.eng.BatchExists(uniq) {
		if live {
			n++
		} else {
			unknown = append(unknown, uniq[i])
		}
	}
	if t.opts.Policy == WriteBack {
		live := unknown[:0]
		for _, k := range unknown {
			e, ok := t.dirty.lookup(k)
			if !ok {
				live = append(live, k)
			} else if e.val != nil {
				n++ // unflushed dirty value: the key existed
			} // else a tombstone: already deleted, nothing to count
		}
		unknown = live
	}
	if t.opts.Policy != CacheOnly && len(unknown) > 0 {
		svals, err := t.opts.Storage.BatchGet(unknown)
		if err != nil {
			return 0, err // nothing deleted yet; surface the failure
		}
		n += len(svals) // BatchGet returns present keys only
	}

	if err := t.commit(ws, nil); err != nil {
		return 0, err
	}
	return n, nil
}
