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

// onlyFirst is the positions of a one-key batch. Visitors only read them.
var onlyFirst = []int{0}

// forEachShardGroup hashes every key once, gives each room to be packed in
// one buffer for the batch, buckets positions of keys by stripe index (a
// stable counting sort — four flat allocations, no per-bucket slices) and
// calls visit once per touched shard with the input positions in input
// order and every key's probe by position. keyAt adapts over []string and
// []KV.
func (e *Engine) forEachShardGroup(n int, keyAt func(i int) string, visit func(s *shard, idxs []int, ps []probe)) {
	ps := make([]probe, n)
	total := 0
	for i := range ps {
		total += packRoom(len(keyAt(i)))
	}
	buf := make([]byte, total)
	for i := range ps {
		key := keyAt(i)
		n := packRoom(len(key))
		ps[i] = e.probe(key, buf[:0:n])
		buf = buf[n:]
	}
	if n == 1 {
		visit(e.shards[ps[0].stripe], onlyFirst, ps)
		return
	}
	nShards := len(e.shards)
	counts := make([]int, 2*nShards+1) // counts, then where each stripe's next position goes
	for i := range ps {
		counts[ps[i].stripe+1]++
	}
	for s := 0; s < nShards; s++ {
		counts[s+1] += counts[s]
	}
	fill := counts[nShards+1:]
	copy(fill, counts[:nShards])
	order := make([]int, n)
	for i := range ps {
		si := ps[i].stripe
		order[fill[si]] = i
		fill[si]++
	}
	for s := 0; s < nShards; s++ {
		if lo, hi := counts[s], counts[s+1]; lo < hi {
			visit(e.shards[s], order[lo:hi], ps)
		}
	}
}

// MGetDetail fetches many string values. The result aligns with keys:
// absent, expired and wrong-typed keys yield a nil entry (Redis MGET
// semantics); present values are always non-nil, even when empty. Each
// touched stripe is read-locked once, and each value is decoded under it
// (value). The per-key wrong-type flag is for
// callers (the tiered cache) that must distinguish "nil because absent" (a
// miss worth a storage fetch) from "nil because the key holds a
// list/set/hash" (which a storage fetch must NOT overwrite).
func (e *Engine) MGetDetail(keys []string) ([][]byte, []bool, error) {
	out := make([][]byte, len(keys))
	wrongType := make([]bool, len(keys))
	if len(keys) == 0 {
		return out, wrongType, nil
	}
	var err error // the first one value returned
	e.forEachShardGroup(len(keys), func(i int) string { return keys[i] }, func(s *shard, idxs []int, ps []probe) {
		s.mu.RLock()
		for _, i := range idxs {
			en, ok := e.live(s, ps[i])
			if !ok {
				continue
			}
			if en.rec.isColl() {
				wrongType[i] = true // nil entry
				continue
			}
			s.touch(en)
			var verr error
			if out[i], verr = e.value(s.strs.parse(en.rec).stored); verr != nil && err == nil {
				err = verr
			}
		}
		s.mu.RUnlock()
	})
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
	e.forEachShardGroup(len(pairs), func(i int) string { return pairs[i].Key }, func(s *shard, idxs []int, ps []probe) {
		s.mu.Lock()
		for _, i := range idxs {
			e.publish(s, ps[i], s.lookup(ps[i]), vals[i])
		}
		s.mu.Unlock()
	})
	return nil
}

// BatchExists reports per-key liveness without decoding values — the
// existence probe behind the tiered DEL count. Each touched stripe is
// read-locked once.
func (e *Engine) BatchExists(keys []string) []bool {
	out := make([]bool, len(keys))
	if len(keys) == 0 {
		return out
	}
	e.forEachShardGroup(len(keys), func(i int) string { return keys[i] }, func(s *shard, idxs []int, ps []probe) {
		s.mu.RLock()
		for _, i := range idxs {
			_, out[i] = e.live(s, ps[i])
		}
		s.mu.RUnlock()
	})
	return out
}

// BatchDel removes keys, returning how many were live. A duplicate key
// counts once. Each touched stripe is write-locked once.
func (e *Engine) BatchDel(keys []string) int {
	n := 0
	e.forEachShardGroup(len(keys), func(i int) string { return keys[i] }, func(s *shard, idxs []int, ps []probe) {
		s.mu.Lock()
		for _, i := range idxs {
			if en := s.lookup(ps[i]); en.present() {
				if !e.lapsed(en.expireAt()) {
					n++
				}
				e.remove(s, en)
			}
		}
		s.mu.Unlock()
	})
	return n
}
