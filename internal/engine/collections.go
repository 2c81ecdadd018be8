package engine

import (
	"sort"
)

// This file implements the non-string data types: lists, sets, sorted sets
// and hashes (the wide-column surface). Collection payloads always live in
// DRAM; compression and PMem offload apply to string values only, matching
// TierBase's deployment (values dominate memory in the string-heavy
// production workloads the paper evaluates).

// getOrCreateLocked returns the collection at key in shard s, creating it
// with kind if absent. Returns ErrWrongType if key holds a string or a
// collection of another kind. Caller holds s.mu write lock.
func (e *Engine) getOrCreateLocked(s *shard, kh uint32, key string, kind Kind) (*item, error) {
	en := s.lookup(kh, key)
	if en.present() && e.lapsed(en.expireAt()) {
		e.remove(s, key, en)
		en = entry{}
	}
	if !en.present() {
		it := newItem(key, kind)
		switch kind {
		case KindSet:
			it.set = make(map[string]struct{})
		case KindZSet:
			it.zset = newZSet()
		case KindHash:
			it.hash = make(map[string][]byte)
		}
		e.addItem(s, key, it)
		return it, nil
	}
	if en.kind() != kind {
		return nil, ErrWrongType
	}
	s.touch(en)
	return en.it, nil
}

// getTyped returns the live collection at key in shard s if it has the
// wanted kind. Caller holds s.mu (either mode).
func (e *Engine) getTyped(s *shard, kh uint32, key string, kind Kind) (*item, error) {
	en, ok := e.live(s, kh, key)
	if !ok {
		return nil, ErrNotFound
	}
	if en.kind() != kind {
		return nil, ErrWrongType
	}
	s.touch(en)
	return en.it, nil
}

// adjustMem charges (or refunds) payload element bytes plus overhead
// bookkeeping bytes to both the item and the shard. Caller holds s.mu
// write lock.
func (e *Engine) adjustMem(s *shard, it *item, payload, overhead int64) {
	it.payload += payload
	it.memBytes += payload + overhead
	s.payload.Add(payload)
	s.memUsed.Add(payload + overhead)
}

// --- lists ---

// LPush prepends values; returns the new length.
func (e *Engine) LPush(key string, vals ...[]byte) (int, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getOrCreateLocked(s, kh, key, KindList)
	if err != nil {
		return 0, err
	}
	for _, v := range vals {
		cp := append([]byte(nil), v...)
		it.list = append([][]byte{cp}, it.list...)
		e.adjustMem(s, it, int64(len(cp)), 24)
	}
	return len(it.list), nil
}

// RPush appends values; returns the new length.
func (e *Engine) RPush(key string, vals ...[]byte) (int, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getOrCreateLocked(s, kh, key, KindList)
	if err != nil {
		return 0, err
	}
	for _, v := range vals {
		cp := append([]byte(nil), v...)
		it.list = append(it.list, cp)
		e.adjustMem(s, it, int64(len(cp)), 24)
	}
	return len(it.list), nil
}

// LPop removes and returns the head.
func (e *Engine) LPop(key string) ([]byte, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getTyped(s, kh, key, KindList)
	if err != nil {
		return nil, err
	}
	if len(it.list) == 0 {
		return nil, ErrNotFound
	}
	v := it.list[0]
	it.list = it.list[1:]
	e.adjustMem(s, it, -int64(len(v)), -24)
	if len(it.list) == 0 {
		e.removeItem(s, key, it)
	}
	return v, nil
}

// RPop removes and returns the tail.
func (e *Engine) RPop(key string) ([]byte, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getTyped(s, kh, key, KindList)
	if err != nil {
		return nil, err
	}
	if len(it.list) == 0 {
		return nil, ErrNotFound
	}
	v := it.list[len(it.list)-1]
	it.list = it.list[:len(it.list)-1]
	e.adjustMem(s, it, -int64(len(v)), -24)
	if len(it.list) == 0 {
		e.removeItem(s, key, it)
	}
	return v, nil
}

// LLen returns the list length (0 if absent).
func (e *Engine) LLen(key string) (int, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindList)
	if err == ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return len(it.list), nil
}

// LRange returns elements [start, stop] with Redis negative-index rules.
func (e *Engine) LRange(key string, start, stop int) ([][]byte, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindList)
	if err == ErrNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	n := len(it.list)
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	if start < 0 {
		start = 0
	}
	if stop >= n {
		stop = n - 1
	}
	if start > stop || start >= n {
		return nil, nil
	}
	out := make([][]byte, 0, stop-start+1)
	for i := start; i <= stop; i++ {
		out = append(out, append([]byte(nil), it.list[i]...))
	}
	return out, nil
}

// --- sets ---

// SAdd inserts members; returns how many were new.
func (e *Engine) SAdd(key string, members ...string) (int, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getOrCreateLocked(s, kh, key, KindSet)
	if err != nil {
		return 0, err
	}
	added := 0
	for _, m := range members {
		if _, ok := it.set[m]; !ok {
			it.set[m] = struct{}{}
			e.adjustMem(s, it, int64(len(m)), 16)
			added++
		}
	}
	return added, nil
}

// SRem removes members; returns how many were present.
func (e *Engine) SRem(key string, members ...string) (int, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getTyped(s, kh, key, KindSet)
	if err == ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, m := range members {
		if _, ok := it.set[m]; ok {
			delete(it.set, m)
			e.adjustMem(s, it, -int64(len(m)), -16)
			removed++
		}
	}
	if len(it.set) == 0 {
		e.removeItem(s, key, it)
	}
	return removed, nil
}

// SIsMember reports membership.
func (e *Engine) SIsMember(key, member string) (bool, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindSet)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	_, ok := it.set[member]
	return ok, nil
}

// SCard returns the set size (0 if absent).
func (e *Engine) SCard(key string) (int, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindSet)
	if err == ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return len(it.set), nil
}

// SMembers returns all members, sorted for determinism.
func (e *Engine) SMembers(key string) ([]string, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindSet)
	if err == ErrNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(it.set))
	for m := range it.set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out, nil
}

// --- sorted sets ---

// zset keeps member→score plus a score-ordered slice for range queries.
type zset struct {
	scores map[string]float64
	sorted []zentry // ascending (score, member)
}

type zentry struct {
	member string
	score  float64
}

func newZSet() *zset { return &zset{scores: make(map[string]float64)} }

func zless(a, b zentry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.member < b.member
}

func (z *zset) insert(member string, score float64) (isNew bool) {
	if old, ok := z.scores[member]; ok {
		if old == score {
			return false
		}
		z.remove(member, old)
	} else {
		isNew = true
	}
	z.scores[member] = score
	ent := zentry{member, score}
	i := sort.Search(len(z.sorted), func(i int) bool { return !zless(z.sorted[i], ent) })
	z.sorted = append(z.sorted, zentry{})
	copy(z.sorted[i+1:], z.sorted[i:])
	z.sorted[i] = ent
	return isNew
}

func (z *zset) remove(member string, score float64) {
	ent := zentry{member, score}
	i := sort.Search(len(z.sorted), func(i int) bool { return !zless(z.sorted[i], ent) })
	for i < len(z.sorted) && z.sorted[i].member != member {
		i++
	}
	if i < len(z.sorted) {
		z.sorted = append(z.sorted[:i], z.sorted[i+1:]...)
	}
	delete(z.scores, member)
}

// ZAdd inserts or updates a member; returns whether it was new.
func (e *Engine) ZAdd(key, member string, score float64) (bool, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getOrCreateLocked(s, kh, key, KindZSet)
	if err != nil {
		return false, err
	}
	isNew := it.zset.insert(member, score)
	if isNew {
		e.adjustMem(s, it, int64(len(member)), 32)
	}
	return isNew, nil
}

// ZIncrBy adds delta to a member's score (creating it at delta).
func (e *Engine) ZIncrBy(key, member string, delta float64) (float64, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getOrCreateLocked(s, kh, key, KindZSet)
	if err != nil {
		return 0, err
	}
	cur := it.zset.scores[member]
	if _, ok := it.zset.scores[member]; !ok {
		e.adjustMem(s, it, int64(len(member)), 32)
	}
	it.zset.insert(member, cur+delta)
	return cur + delta, nil
}

// ZScore returns a member's score.
func (e *Engine) ZScore(key, member string) (float64, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindZSet)
	if err != nil {
		return 0, err
	}
	sc, ok := it.zset.scores[member]
	if !ok {
		return 0, ErrNotFound
	}
	return sc, nil
}

// ZRem removes a member; reports whether it was present.
func (e *Engine) ZRem(key, member string) (bool, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getTyped(s, kh, key, KindZSet)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	sc, ok := it.zset.scores[member]
	if !ok {
		return false, nil
	}
	it.zset.remove(member, sc)
	e.adjustMem(s, it, -int64(len(member)), -32)
	if len(it.zset.scores) == 0 {
		e.removeItem(s, key, it)
	}
	return true, nil
}

// ZCard returns the member count (0 if absent).
func (e *Engine) ZCard(key string) (int, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindZSet)
	if err == ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return len(it.zset.scores), nil
}

// ZMember is one (member, score) pair.
type ZMember struct {
	Member string
	Score  float64
}

// ZRange returns members by rank [start, stop], Redis negative-index rules.
func (e *Engine) ZRange(key string, start, stop int) ([]ZMember, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindZSet)
	if err == ErrNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	n := len(it.zset.sorted)
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	if start < 0 {
		start = 0
	}
	if stop >= n {
		stop = n - 1
	}
	if start > stop || start >= n {
		return nil, nil
	}
	out := make([]ZMember, 0, stop-start+1)
	for i := start; i <= stop; i++ {
		out = append(out, ZMember{it.zset.sorted[i].member, it.zset.sorted[i].score})
	}
	return out, nil
}

// ZRangeByScore returns members with min <= score <= max, ascending.
func (e *Engine) ZRangeByScore(key string, min, max float64) ([]ZMember, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindZSet)
	if err == ErrNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []ZMember
	lo := sort.Search(len(it.zset.sorted), func(i int) bool { return it.zset.sorted[i].score >= min })
	for i := lo; i < len(it.zset.sorted) && it.zset.sorted[i].score <= max; i++ {
		out = append(out, ZMember{it.zset.sorted[i].member, it.zset.sorted[i].score})
	}
	return out, nil
}

// --- hashes (wide-column surface) ---

// HSet stores a field; reports whether the field was new.
func (e *Engine) HSet(key, field string, val []byte) (bool, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getOrCreateLocked(s, kh, key, KindHash)
	if err != nil {
		return false, err
	}
	old, existed := it.hash[field]
	cp := append([]byte(nil), val...)
	it.hash[field] = cp
	if existed {
		e.adjustMem(s, it, int64(len(cp)-len(old)), 0)
	} else {
		e.adjustMem(s, it, int64(len(field)+len(cp)), 32)
	}
	return !existed, nil
}

// HGet fetches a field.
func (e *Engine) HGet(key, field string) ([]byte, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindHash)
	if err != nil {
		return nil, err
	}
	v, ok := it.hash[field]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// HDel removes fields; returns how many existed.
func (e *Engine) HDel(key string, fields ...string) (int, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, err := e.getTyped(s, kh, key, KindHash)
	if err == ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range fields {
		if v, ok := it.hash[f]; ok {
			delete(it.hash, f)
			e.adjustMem(s, it, -int64(len(f)+len(v)), -32)
			n++
		}
	}
	if len(it.hash) == 0 {
		e.removeItem(s, key, it)
	}
	return n, nil
}

// HLen returns the field count (0 if absent).
func (e *Engine) HLen(key string) (int, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindHash)
	if err == ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return len(it.hash), nil
}

// HGetAll returns all fields sorted by name.
type HashField struct {
	Field string
	Value []byte
}

// HGetAll returns every field of the hash, sorted by field name.
func (e *Engine) HGetAll(key string) ([]HashField, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, err := e.getTyped(s, kh, key, KindHash)
	if err == ErrNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make([]HashField, 0, len(it.hash))
	for f, v := range it.hash {
		out = append(out, HashField{f, append([]byte(nil), v...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Field < out[j].Field })
	return out, nil
}
