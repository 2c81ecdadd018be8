package engine

import (
	"sort"
)

// This file implements the non-string data types: lists, sets, sorted sets
// and hashes (the wide-column surface). Collection payloads always live in
// DRAM; compression and PMem offload apply to string values only, matching
// TierBase's deployment (values dominate memory in the string-heavy
// production workloads the paper evaluates).
//
// A collection changes one way. Its element model is the add and remove
// operations on item below: each copies an element in and charges it from
// elemBytes, and LoadEncoded builds an item with the same operations. Every
// write command runs one of them through update, every read command reads
// through read. update is the only place a collection emptied by a write is
// deleted, so no empty collection ever exists.

// elemBytes is what an element costs a collection beyond its own bytes, by
// kind: a list's slice header; a set's map slot; a sorted set's map slot and
// its entry in the score order; a hash's map slot and value header.
var elemBytes = [...]int64{KindList: 24, KindSet: 16, KindZSet: 32, KindHash: 32}

// charge books payload element bytes and elems elements (negative to
// refund them) to the item.
func (it *item) charge(payload, elems int) {
	it.payload += int64(payload)
	it.memBytes += int64(payload) + int64(elems)*elemBytes[it.kind]
}

// size is the element count.
func (it *item) size() int {
	switch it.kind {
	case KindList:
		return len(it.list)
	case KindSet:
		return len(it.set)
	case KindZSet:
		return len(it.zset.scores)
	case KindHash:
		return len(it.hash)
	}
	return 0
}

// clone copies an element in or out of a collection. The copy is never nil,
// even of an empty element: an empty value is present, and nil reads as
// absent.
func clone(v []byte) []byte {
	c := make([]byte, len(v))
	copy(c, v)
	return c
}

func (it *item) push(v []byte, head bool) {
	v = clone(v)
	if head {
		it.list = append([][]byte{v}, it.list...)
	} else {
		it.list = append(it.list, v)
	}
	it.charge(len(v), 1)
}

func (it *item) pop(head bool) (v []byte) {
	if n := len(it.list) - 1; head {
		v, it.list = it.list[0], it.list[1:]
	} else {
		v, it.list = it.list[n], it.list[:n]
	}
	it.charge(-len(v), -1)
	return v
}

func (it *item) sadd(m string) bool {
	if _, ok := it.set[m]; ok {
		return false
	}
	it.set[m] = struct{}{}
	it.charge(len(m), 1)
	return true
}

func (it *item) srem(m string) bool {
	if _, ok := it.set[m]; !ok {
		return false
	}
	delete(it.set, m)
	it.charge(-len(m), -1)
	return true
}

func (it *item) zadd(m string, score float64) bool {
	isNew := it.zset.insert(m, score)
	if isNew {
		it.charge(len(m), 1)
	}
	return isNew
}

func (it *item) zrem(m string) bool {
	sc, ok := it.zset.scores[m]
	if ok {
		it.zset.remove(m, sc)
		it.charge(-len(m), -1)
	}
	return ok
}

func (it *item) hset(f string, v []byte) bool {
	old, had := it.hash[f]
	v = clone(v)
	it.hash[f] = v
	if had {
		it.charge(len(v)-len(old), 0)
	} else {
		it.charge(len(f)+len(v), 1)
	}
	return !had
}

func (it *item) hdel(f string) bool {
	v, ok := it.hash[f]
	if ok {
		delete(it.hash, f)
		it.charge(-len(f)-len(v), -1)
	}
	return ok
}

// update runs change on key's live collection of kind under the stripe's
// write lock. An absent (or lapsed) key is ErrNotFound unless create is
// set, when change gets a new empty collection. The stripe is then charged
// what change charged the item, and a collection change left empty is
// deleted. ErrWrongType when key holds another kind.
func (e *Engine) update(key string, kind Kind, create bool, change func(it *item)) error {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.Lock()
	defer s.mu.Unlock()
	en := s.lookup(k)
	if en.present() && e.lapsed(en.expireAt()) {
		if !create {
			return ErrNotFound
		}
		e.remove(s, key, en)
		en = entry{}
	}
	switch {
	case en.present() && en.kind() != kind:
		return ErrWrongType
	case en.present():
		s.touch(en)
	case !create:
		return ErrNotFound
	default:
		en.it = newItem(key, kind, 0)
		e.addItem(s, key, en.it)
	}
	it := en.it
	mem, payload := it.memBytes, it.payload
	change(it)
	s.memUsed.Add(it.memBytes - mem)
	s.payload.Add(it.payload - payload)
	if it.size() == 0 {
		e.removeItem(s, key, it)
	}
	return nil
}

// read runs look on key's live collection of kind under the stripe's read
// lock: ErrNotFound when key is absent, ErrWrongType when it holds another
// kind.
func (e *Engine) read(key string, kind Kind, look func(it *item)) error {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	defer s.mu.RUnlock()
	en, ok := e.live(s, k)
	if !ok {
		return ErrNotFound
	}
	if en.kind() != kind {
		return ErrWrongType
	}
	s.touch(en)
	look(en.it)
	return nil
}

// absentIsZero is the error of a command that answers an absent key with
// its zero value: an empty list, set or hash.
func absentIsZero(err error) error {
	if err == ErrNotFound {
		return nil
	}
	return err
}

// card is the element count of key's collection of kind (0 if absent).
func (e *Engine) card(key string, kind Kind) (int, error) {
	var n int
	err := e.read(key, kind, func(it *item) { n = it.size() })
	return n, absentIsZero(err)
}

// window is s[start..stop] by Redis's range rules: both ends inclusive, a
// negative index counting from the end, ends past either edge clamped to it.
// nil when the range holds nothing.
func window[T any](s []T, start, stop int) []T {
	n := len(s)
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	start, stop = max(start, 0), min(stop, n-1)
	if start > stop {
		return nil
	}
	return s[start : stop+1]
}

// --- lists ---

// LPush prepends values; returns the new length.
func (e *Engine) LPush(key string, vals ...[]byte) (int, error) {
	return e.push(key, vals, true)
}

// RPush appends values; returns the new length.
func (e *Engine) RPush(key string, vals ...[]byte) (int, error) {
	return e.push(key, vals, false)
}

func (e *Engine) push(key string, vals [][]byte, head bool) (n int, err error) {
	err = e.update(key, KindList, true, func(it *item) {
		for _, v := range vals {
			it.push(v, head)
		}
		n = len(it.list)
	})
	return n, err
}

// LPop removes and returns the head.
func (e *Engine) LPop(key string) ([]byte, error) { return e.pop(key, true) }

// RPop removes and returns the tail.
func (e *Engine) RPop(key string) ([]byte, error) { return e.pop(key, false) }

func (e *Engine) pop(key string, head bool) (v []byte, err error) {
	err = e.update(key, KindList, false, func(it *item) { v = it.pop(head) })
	return v, err
}

// LLen returns the list length (0 if absent).
func (e *Engine) LLen(key string) (int, error) { return e.card(key, KindList) }

// LRange returns elements [start, stop] with Redis negative-index rules.
func (e *Engine) LRange(key string, start, stop int) (out [][]byte, err error) {
	err = e.read(key, KindList, func(it *item) {
		if w := window(it.list, start, stop); w != nil {
			out = make([][]byte, len(w))
			for i, v := range w {
				out[i] = clone(v)
			}
		}
	})
	return out, absentIsZero(err)
}

// --- sets ---

// SAdd inserts members; returns how many were new.
func (e *Engine) SAdd(key string, members ...string) (added int, err error) {
	err = e.update(key, KindSet, true, func(it *item) {
		for _, m := range members {
			if it.sadd(m) {
				added++
			}
		}
	})
	return added, err
}

// SRem removes members; returns how many were present.
func (e *Engine) SRem(key string, members ...string) (removed int, err error) {
	err = e.update(key, KindSet, false, func(it *item) {
		for _, m := range members {
			if it.srem(m) {
				removed++
			}
		}
	})
	return removed, absentIsZero(err)
}

// SIsMember reports membership.
func (e *Engine) SIsMember(key, member string) (ok bool, err error) {
	err = e.read(key, KindSet, func(it *item) { _, ok = it.set[member] })
	return ok, absentIsZero(err)
}

// SCard returns the set size (0 if absent).
func (e *Engine) SCard(key string) (int, error) { return e.card(key, KindSet) }

// SMembers returns all members, sorted for determinism.
func (e *Engine) SMembers(key string) (out []string, err error) {
	err = e.read(key, KindSet, func(it *item) {
		out = make([]string, 0, len(it.set))
		for m := range it.set {
			out = append(out, m)
		}
	})
	sort.Strings(out)
	return out, absentIsZero(err)
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
func (e *Engine) ZAdd(key, member string, score float64) (isNew bool, err error) {
	err = e.update(key, KindZSet, true, func(it *item) { isNew = it.zadd(member, score) })
	return isNew, err
}

// ZScore returns a member's score.
func (e *Engine) ZScore(key, member string) (sc float64, err error) {
	ok := false
	err = e.read(key, KindZSet, func(it *item) { sc, ok = it.zset.scores[member] })
	if err == nil && !ok {
		err = ErrNotFound
	}
	return sc, err
}

// ZRem removes a member; reports whether it was present.
func (e *Engine) ZRem(key, member string) (removed bool, err error) {
	err = e.update(key, KindZSet, false, func(it *item) { removed = it.zrem(member) })
	return removed, absentIsZero(err)
}

// ZCard returns the member count (0 if absent).
func (e *Engine) ZCard(key string) (int, error) { return e.card(key, KindZSet) }

// ZMember is one (member, score) pair.
type ZMember struct {
	Member string
	Score  float64
}

// ZRange returns members by rank [start, stop], Redis negative-index rules.
func (e *Engine) ZRange(key string, start, stop int) (out []ZMember, err error) {
	err = e.read(key, KindZSet, func(it *item) {
		if w := window(it.zset.sorted, start, stop); w != nil {
			out = make([]ZMember, len(w))
			for i, z := range w {
				out[i] = ZMember{z.member, z.score}
			}
		}
	})
	return out, absentIsZero(err)
}

// --- hashes (wide-column surface) ---

// HSet stores a field; reports whether the field was new.
func (e *Engine) HSet(key, field string, val []byte) (isNew bool, err error) {
	err = e.update(key, KindHash, true, func(it *item) { isNew = it.hset(field, val) })
	return isNew, err
}

// HGet fetches a field.
func (e *Engine) HGet(key, field string) (v []byte, err error) {
	err = e.read(key, KindHash, func(it *item) {
		if cur, ok := it.hash[field]; ok {
			v = clone(cur)
		}
	})
	if err == nil && v == nil {
		err = ErrNotFound
	}
	return v, err
}

// HDel removes fields; returns how many existed.
func (e *Engine) HDel(key string, fields ...string) (n int, err error) {
	err = e.update(key, KindHash, false, func(it *item) {
		for _, f := range fields {
			if it.hdel(f) {
				n++
			}
		}
	})
	return n, absentIsZero(err)
}

// HLen returns the field count (0 if absent).
func (e *Engine) HLen(key string) (int, error) { return e.card(key, KindHash) }

// HashField is one field of a hash and its value.
type HashField struct {
	Field string
	Value []byte
}

// HGetAll returns every field of the hash, sorted by field name.
func (e *Engine) HGetAll(key string) (out []HashField, err error) {
	err = e.read(key, KindHash, func(it *item) {
		out = make([]HashField, 0, len(it.hash))
		for f, v := range it.hash {
			out = append(out, HashField{f, clone(v)})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Field < out[j].Field })
	return out, absentIsZero(err)
}
