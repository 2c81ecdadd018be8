package engine

import (
	"encoding/binary"
	"errors"
	"iter"
	"math"
	"slices"
	"sort"
	"sync"
)

// This file implements the non-string data types: lists, sets, sorted sets
// and hashes (the wide-column surface). A collection is a record like a
// string's, flagged flagColl, whose value is its blob (codec.go): the bytes
// Encode returns, in DRAM and raw, never compressed or offloaded to PMem.
// It is charged its slot like any record. A list's elements are the list, a
// set's members and a hash's fields are in the order they were added, and
// a sorted set's elements ascend by (score, member).
//
// Every write command runs through update: it walks the elements under the
// stripe's write lock, writes the collection it leaves to a new slot, and
// deletes the key if that holds no element, so no empty collection ever
// exists. Every read command walks the elements through read, under the
// read lock, and copies out what it returns. Either way a command on an
// n-element collection walks and copies O(n) bytes.

// ErrNaNScore refuses a sorted-set score that is NaN, which has no place in
// the order.
var ErrNaNScore = errors.New("engine: sorted-set score is NaN")

// coll is a collection's blob taken apart: its kind, its element count and
// its elements, aliasing the blob.
type coll struct {
	kind  Kind
	n     int
	elems []byte
}

// blobColl takes apart blob, a record's collection blob, which
// LoadEncoded or update wrote and is therefore canonical.
func blobColl(blob []byte) coll {
	n, w := uvarint(blob[2:])
	return coll{kind: Kind(blob[1]), n: int(n), elems: blob[2+w:]}
}

// all yields c's elements in order, each with its encoding.
func (c coll) all() iter.Seq2[elem, []byte] {
	return func(yield func(elem, []byte) bool) {
		for p := c.elems; len(p) > 0; {
			el, n, err := nextElem(c.kind, p)
			if err != nil {
				panic("engine: a collection record its own decoder refuses")
			}
			if !yield(el, p[:n]) {
				return
			}
			p = p[n:]
		}
	}
}

// find returns c's element known by key: a member or a field.
func (c coll) find(key string) (elem, bool) {
	for el := range c.all() {
		if string(el.key) == key {
			return el, true
		}
	}
	return elem{}, false
}

// args is a command's members or fields, found by a scan when they are few
// and through a map when they are many, so a command of m arguments on an
// n-element collection costs O(n+m) compares, not O(n·m).
type args struct {
	keys  []string
	first map[string]int // each key's first position, past argsScanMax keys
}

// argsScanMax is the most arguments args finds by a scan.
const argsScanMax = 8

func newArgs(keys []string) args {
	a := args{keys: keys}
	if len(keys) > argsScanMax {
		a.first = make(map[string]int, len(keys))
		for i := len(keys) - 1; i >= 0; i-- {
			a.first[keys[i]] = i
		}
	}
	return a
}

// find is the position of key's first occurrence among a's keys, or -1.
func (a args) find(key []byte) int {
	if a.first != nil {
		if i, ok := a.first[string(key)]; ok {
			return i
		}
		return -1
	}
	for i, k := range a.keys {
		if k == string(key) {
			return i
		}
	}
	return -1
}

// firstOf is the position of the first occurrence of a.keys[i].
func (a args) firstOf(i int) int {
	if a.first != nil {
		return a.first[a.keys[i]]
	}
	return slices.Index(a.keys, a.keys[i])
}

// clone copies an element out of a collection. The copy is never nil, even
// of an empty element: an empty value is present, and nil reads as absent.
func clone(v []byte) []byte {
	c := make([]byte, len(v))
	copy(c, v)
	return c
}

// scratchPool holds the buffers update builds a collection's elements in
// before publish copies them into the record's slot.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledScratch keeps one huge collection from pinning its buffer in
// the pool.
const maxPooledScratch = 64 << 10

// collHead is the room update leaves in front of the elements it builds for
// the blob's header: the marker, the kind and the longest count.
const collHead = 2 + binary.MaxVarintLen64

// collOf is en, a live entry of s, as a collection of kind: ErrWrongType
// when it holds another kind. Caller holds s.mu.
func (s *shard) collOf(en entry, kind Kind) (coll, error) {
	if !en.rec.isColl() {
		return coll{}, ErrWrongType
	}
	c := blobColl(s.strs.parse(en.rec).val)
	if c.kind != kind {
		return coll{}, ErrWrongType
	}
	return c, nil
}

// update runs change on key's live collection of kind under the stripe's
// write lock. An absent (or lapsed) key is ErrNotFound unless create is
// set, when change gets a collection of no element. change appends the
// elements of the collection it leaves to out and returns out and their
// count, or nil when it leaves the collection as it was. The key's record
// is then written to a new slot with the deadline it had, or deleted if no
// element is left. ErrWrongType when key holds another kind.
func (e *Engine) update(key string, kind Kind, create bool, change func(c coll, out []byte) ([]byte, int)) error {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := e.live(s, k)
	if !ok && !create {
		return ErrNotFound
	}
	c, st := coll{kind: kind}, staged{flags: flagColl}
	if ok {
		var err error
		if c, err = s.collOf(en, kind); err != nil {
			return err
		}
		s.touch(en)
		if en.rec[0]&flagTTL != 0 {
			st.flags, st.at = st.flags|flagTTL, en.rec.deadline()
		}
	}
	pooled := scratchPool.Get().(*[]byte)
	out, n := change(c, slices.Grow((*pooled)[:0], collHead)[:collHead])
	switch {
	case out == nil:
	case n == 0:
		e.remove(s, en)
	default:
		h := 2 + uvarintLen(uint64(n))
		st.val = out[collHead-h:]
		st.val[0], st.val[1] = typedMarker, byte(kind)
		binary.PutUvarint(st.val[2:], uint64(n))
		e.publish(s, k, en, st) // a lapsed record, of any kind, is replaced
	}
	if out != nil && cap(out) <= maxPooledScratch {
		*pooled = out
	}
	scratchPool.Put(pooled)
	return nil
}

// read runs look on key's live collection of kind under the stripe's read
// lock: ErrNotFound when key is absent, ErrWrongType when it holds another
// kind. What look keeps of the collection it must copy.
func (e *Engine) read(key string, kind Kind, look func(c coll)) error {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	defer s.mu.RUnlock()
	en, ok := e.live(s, k)
	if !ok {
		return ErrNotFound
	}
	c, err := s.collOf(en, kind)
	if err != nil {
		return err
	}
	s.touch(en)
	look(c)
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
	err := e.read(key, kind, func(c coll) { n = c.n })
	return n, absentIsZero(err)
}

// window is the elements [lo, hi) of n that [start, stop] covers by Redis's
// range rules: both ends inclusive, a negative index counting from the end,
// ends past either edge clamped to it. lo == hi when it covers none.
func window(n, start, stop int) (lo, hi int) {
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	start, stop = max(start, 0), min(stop, n-1)
	if start > stop {
		return 0, 0
	}
	return start, stop + 1
}

// ranged yields the elements [lo, hi) of c.
func (c coll) ranged(lo, hi int) iter.Seq[elem] {
	return func(yield func(elem) bool) {
		i := 0
		for el := range c.all() {
			if i >= hi || i >= lo && !yield(el) {
				return
			}
			i++
		}
	}
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
	err = e.update(key, KindList, true, func(c coll, out []byte) ([]byte, int) {
		n = c.n + len(vals)
		if len(vals) == 0 {
			return nil, n
		}
		if !head {
			out = append(out, c.elems...)
		}
		for i := range vals {
			if head {
				i = len(vals) - 1 - i // each goes in front of the one before
			}
			out = appendLenBytes(out, vals[i])
		}
		if head {
			out = append(out, c.elems...)
		}
		return out, n
	})
	return n, err
}

// LPop removes and returns the head.
func (e *Engine) LPop(key string) ([]byte, error) { return e.pop(key, true) }

// RPop removes and returns the tail.
func (e *Engine) RPop(key string) ([]byte, error) { return e.pop(key, false) }

func (e *Engine) pop(key string, head bool) (v []byte, err error) {
	err = e.update(key, KindList, false, func(c coll, out []byte) ([]byte, int) {
		var gone []byte // the element's encoding
		for el, enc := range c.all() {
			v, gone = el.key, enc
			if head {
				break
			}
		}
		v = clone(v)
		if head {
			return append(out, c.elems[len(gone):]...), c.n - 1
		}
		return append(out, c.elems[:len(c.elems)-len(gone)]...), c.n - 1
	})
	return v, err
}

// LLen returns the list length (0 if absent).
func (e *Engine) LLen(key string) (int, error) { return e.card(key, KindList) }

// LRange returns elements [start, stop] with Redis negative-index rules.
func (e *Engine) LRange(key string, start, stop int) (out [][]byte, err error) {
	err = e.read(key, KindList, func(c coll) {
		if lo, hi := window(c.n, start, stop); lo < hi {
			out = make([][]byte, 0, hi-lo)
			for el := range c.ranged(lo, hi) {
				out = append(out, clone(el.key))
			}
		}
	})
	return out, absentIsZero(err)
}

// --- sets ---

// SAdd inserts members; returns how many were new.
func (e *Engine) SAdd(key string, members ...string) (added int, err error) {
	a := newArgs(members)
	var few [argsScanMax]bool
	had := few[:] // had[i]: the set holds, or an earlier argument added, a.keys[i]
	if len(members) > len(few) {
		had = make([]bool, len(members))
	}
	err = e.update(key, KindSet, true, func(c coll, out []byte) ([]byte, int) {
		out = append(out, c.elems...)
		for el := range c.all() {
			if i := a.find(el.key); i >= 0 {
				had[i] = true
			}
		}
		for i, m := range members {
			if j := a.firstOf(i); !had[j] {
				had[j] = true
				out = appendLenString(out, m)
				added++
			}
		}
		if added == 0 {
			return nil, c.n
		}
		return out, c.n + added
	})
	return added, err
}

// remove appends the elements of c that keys does not name to out, and
// returns out and how many it left out, or nil when it left out none.
func (c coll) remove(out []byte, keys []string) ([]byte, int) {
	a, removed := newArgs(keys), 0
	for el, enc := range c.all() {
		if a.find(el.key) >= 0 {
			removed++
		} else {
			out = append(out, enc...)
		}
	}
	if removed == 0 {
		return nil, 0
	}
	return out, removed
}

// SRem removes members; returns how many were present.
func (e *Engine) SRem(key string, members ...string) (removed int, err error) {
	err = e.update(key, KindSet, false, func(c coll, out []byte) ([]byte, int) {
		out, removed = c.remove(out, members)
		return out, c.n - removed
	})
	return removed, absentIsZero(err)
}

// SIsMember reports membership.
func (e *Engine) SIsMember(key, member string) (ok bool, err error) {
	err = e.read(key, KindSet, func(c coll) { _, ok = c.find(member) })
	return ok, absentIsZero(err)
}

// SCard returns the set size (0 if absent).
func (e *Engine) SCard(key string) (int, error) { return e.card(key, KindSet) }

// SMembers returns all members, sorted for determinism.
func (e *Engine) SMembers(key string) (out []string, err error) {
	err = e.read(key, KindSet, func(c coll) {
		out = make([]string, 0, c.n)
		for el := range c.all() {
			out = append(out, string(el.key))
		}
	})
	sort.Strings(out)
	return out, absentIsZero(err)
}

// --- sorted sets ---

// appendZElem appends a sorted set's element to a blob.
func appendZElem(b []byte, member string, score float64) []byte {
	b = appendLenString(b, member)
	return binary.BigEndian.AppendUint64(b, math.Float64bits(score))
}

// ZAdd inserts or updates a member; returns whether it was new. A NaN
// score is ErrNaNScore.
func (e *Engine) ZAdd(key, member string, score float64) (isNew bool, err error) {
	if math.IsNaN(score) {
		return false, ErrNaNScore
	}
	ent := elem{key: []byte(member), score: score}
	err = e.update(key, KindZSet, true, func(c coll, out []byte) ([]byte, int) {
		isNew = true
		placed := false
		for el, enc := range c.all() {
			if string(el.key) == member {
				isNew = false
				if el.score == score {
					return nil, c.n
				}
				continue
			}
			if !placed && zless(ent, el) {
				out, placed = appendZElem(out, member, score), true
			}
			out = append(out, enc...)
		}
		if !placed {
			out = appendZElem(out, member, score)
		}
		if isNew {
			return out, c.n + 1
		}
		return out, c.n
	})
	return isNew, err
}

// ZScore returns a member's score.
func (e *Engine) ZScore(key, member string) (sc float64, err error) {
	ok := false
	err = e.read(key, KindZSet, func(c coll) {
		var el elem
		el, ok = c.find(member)
		sc = el.score
	})
	if err == nil && !ok {
		err = ErrNotFound
	}
	return sc, err
}

// ZRem removes a member; reports whether it was present.
func (e *Engine) ZRem(key, member string) (removed bool, err error) {
	err = e.update(key, KindZSet, false, func(c coll, out []byte) ([]byte, int) {
		out, n := c.remove(out, []string{member})
		removed = n == 1
		return out, c.n - n
	})
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
	err = e.read(key, KindZSet, func(c coll) {
		if lo, hi := window(c.n, start, stop); lo < hi {
			out = make([]ZMember, 0, hi-lo)
			for el := range c.ranged(lo, hi) {
				out = append(out, ZMember{string(el.key), el.score})
			}
		}
	})
	return out, absentIsZero(err)
}

// --- hashes (wide-column surface) ---

// HSet stores a field; reports whether the field was new.
func (e *Engine) HSet(key, field string, val []byte) (isNew bool, err error) {
	err = e.update(key, KindHash, true, func(c coll, out []byte) ([]byte, int) {
		isNew = true
		for el, enc := range c.all() {
			if string(el.key) == field {
				isNew = false
				out = appendLenBytes(appendLenString(out, field), val)
			} else {
				out = append(out, enc...)
			}
		}
		if isNew {
			return appendLenBytes(appendLenString(out, field), val), c.n + 1
		}
		return out, c.n
	})
	return isNew, err
}

// HGet fetches a field.
func (e *Engine) HGet(key, field string) (v []byte, err error) {
	err = e.read(key, KindHash, func(c coll) {
		if el, ok := c.find(field); ok {
			v = clone(el.val)
		}
	})
	if err == nil && v == nil {
		err = ErrNotFound
	}
	return v, err
}

// HDel removes fields; returns how many existed.
func (e *Engine) HDel(key string, fields ...string) (n int, err error) {
	err = e.update(key, KindHash, false, func(c coll, out []byte) ([]byte, int) {
		out, n = c.remove(out, fields)
		return out, c.n - n
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
	err = e.read(key, KindHash, func(c coll) {
		out = make([]HashField, 0, c.n)
		for el := range c.all() {
			out = append(out, HashField{string(el.key), clone(el.val)})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Field < out[j].Field })
	return out, absentIsZero(err)
}
