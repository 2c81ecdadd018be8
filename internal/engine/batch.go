package engine

// Batch operations: the engine-level fast path for MGET/MSET-style
// traffic. Keys are grouped by lock stripe and each stripe lock is taken
// exactly once per batch, so an N-key batch costs O(shards touched) lock
// acquisitions instead of N — the in-memory analog of the paper's
// one-round-trip BatchGet/BatchPut against the storage tier.

// KV is one key/value pair for MSet.
type KV struct {
	Key string
	Val []byte
}

// forEachShardGroup buckets positions of keys by stripe index (a stable
// counting sort — three flat allocations, no per-bucket slices) and calls
// visit once per touched shard with the input positions in input order and
// every key's hash by position. keyAt adapts over []string and []KV.
func (e *Engine) forEachShardGroup(n int, keyAt func(i int) string, visit func(s *shard, idxs []int, khs []uint32)) {
	khs := make([]uint32, n)
	if n == 1 {
		khs[0] = fnv1a(keyAt(0))
		visit(e.shards[khs[0]&e.mask], []int{0}, khs)
		return
	}
	nShards := len(e.shards)
	counts := make([]int, nShards+1)
	for i := 0; i < n; i++ {
		khs[i] = fnv1a(keyAt(i))
		counts[khs[i]&e.mask+1]++
	}
	for s := 0; s < nShards; s++ {
		counts[s+1] += counts[s]
	}
	order := make([]int, n)
	fill := append([]int(nil), counts[:nShards]...)
	for i := 0; i < n; i++ {
		si := khs[i] & e.mask
		order[fill[si]] = i
		fill[si]++
	}
	for s := 0; s < nShards; s++ {
		if lo, hi := counts[s], counts[s+1]; lo < hi {
			visit(e.shards[s], order[lo:hi], khs)
		}
	}
}

// MGet fetches many string values. The result aligns with keys: absent,
// expired and wrong-typed keys yield a nil entry (Redis MGET semantics);
// present values are always non-nil, even when empty. Each touched stripe
// is read-locked once.
func (e *Engine) MGet(keys []string) ([][]byte, error) {
	vals, _, err := e.MGetDetail(keys)
	return vals, err
}

// MGetDetail is MGet plus a per-key wrong-type flag, for callers (the
// tiered cache) that must distinguish "nil because absent" (a miss worth
// a storage fetch) from "nil because the key holds a list/set/hash"
// (which a storage fetch must NOT overwrite).
func (e *Engine) MGetDetail(keys []string) ([][]byte, []bool, error) {
	out := make([][]byte, len(keys))
	wrongType := make([]bool, len(keys))
	if len(keys) == 0 {
		return out, wrongType, nil
	}
	// What each found string's take returned; flags say how to finish it.
	type taken struct {
		flags byte
		data  []byte // stays nil where no string was found
	}
	recs := make([]taken, len(keys))
	pooled, scratch := getScratch() // the batch's compressed values, back to back
	var err error                   // the first one take or finish returned

	e.forEachShardGroup(len(keys), func(i int) string { return keys[i] }, func(s *shard, idxs []int, khs []uint32) {
		var hits, misses int64
		s.mu.RLock()
		for _, i := range idxs {
			en, ok := e.live(s, khs[i], keys[i])
			if !ok {
				misses++
				continue
			}
			if en.rec == nil {
				wrongType[i] = true // nil entry, counts as neither
				continue
			}
			s.touch(en)
			f := en.rec.parse()
			var terr error
			recs[i].flags = f.flags
			if recs[i].data, scratch, terr = e.take(f.stored, scratch); terr != nil && err == nil {
				err = terr
			}
			hits++
		}
		s.mu.RUnlock()
		if hits > 0 {
			s.hits.Add(hits)
		}
		if misses > 0 {
			s.misses.Add(misses)
		}
	})

	// Decompress outside all locks (the expensive part must not serialize
	// the stripe).
	for i := range keys {
		if err != nil {
			break
		}
		if recs[i].data != nil {
			out[i], err = e.finish(recs[i].flags, recs[i].data)
		}
	}
	putScratch(pooled, scratch)
	if err != nil {
		return nil, nil, err
	}
	return out, wrongType, nil
}

// MSet stores many string values, clearing any TTLs (Redis MSET
// semantics). Values are encoded (compressed / PMem-placed) outside the
// locks, then each touched stripe is write-locked once. Duplicate keys
// apply in input order: the last pair wins.
func (e *Engine) MSet(pairs []KV) error {
	if len(pairs) == 0 {
		return nil
	}
	vals := make([]staged, len(pairs))
	for i, p := range pairs {
		vals[i] = e.encode(p.Val)
	}
	e.forEachShardGroup(len(pairs), func(i int) string { return pairs[i].Key }, func(s *shard, idxs []int, khs []uint32) {
		s.mu.Lock()
		for _, i := range idxs {
			e.publish(s, khs[i], pairs[i].Key, vals[i])
		}
		s.mu.Unlock()
	})
	return nil
}

// BatchExists reports per-key liveness without bumping hit/miss stats or
// decoding values — the existence probe behind the tiered DEL count. Each
// touched stripe is read-locked once.
func (e *Engine) BatchExists(keys []string) []bool {
	out := make([]bool, len(keys))
	if len(keys) == 0 {
		return out
	}
	e.forEachShardGroup(len(keys), func(i int) string { return keys[i] }, func(s *shard, idxs []int, khs []uint32) {
		s.mu.RLock()
		for _, i := range idxs {
			_, out[i] = e.live(s, khs[i], keys[i])
		}
		s.mu.RUnlock()
	})
	return out
}

// BatchDel removes keys, returning how many were live. Each touched
// stripe is write-locked once.
func (e *Engine) BatchDel(keys []string) int {
	n := 0
	for _, live := range e.BatchDelDetail(keys) {
		if live {
			n++
		}
	}
	return n
}

// BatchDelDetail removes keys like BatchDel but reports per-key liveness,
// for callers (the tiered cache's BatchDelete) that must consult the
// storage tier for exactly the keys the cache no longer held. A duplicate
// key reports live only at its first position.
func (e *Engine) BatchDelDetail(keys []string) []bool {
	existed := make([]bool, len(keys))
	if len(keys) == 0 {
		return existed
	}
	e.forEachShardGroup(len(keys), func(i int) string { return keys[i] }, func(s *shard, idxs []int, khs []uint32) {
		s.mu.Lock()
		for _, i := range idxs {
			if en := s.lookup(khs[i], keys[i]); en.present() {
				existed[i] = !e.lapsed(en.expireAt())
				e.remove(s, keys[i], en)
			}
		}
		s.mu.Unlock()
	})
	return existed
}
