package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/compress"
	"tierbase/internal/pmem"
)

// mval is the model's idea of one key: a plain Go value per kind. Like the
// engine, the model keeps a lapsed entry until something removes it.
type mval struct {
	kind Kind
	str  []byte
	list [][]byte
	set  map[string]bool
	hash map[string]string
	zset map[string]float64
	exp  int64
}

func (m *mval) empty() bool {
	return len(m.list) == 0 && len(m.set) == 0 && len(m.hash) == 0 && len(m.zset) == 0
}

// model drives an Engine and a map side by side.
type model struct {
	t    *testing.T
	e    *Engine
	keys map[string]*mval
	now  atomic.Int64
	rng  *rand.Rand
	span int // keys are drawn from k0..k<span-1>
}

func newModel(t *testing.T, seed int64, shards int) *model {
	m := &model{t: t, keys: map[string]*mval{}, rng: rand.New(rand.NewSource(seed))}
	m.now.Store(1)
	// A compressor, so both stored forms are read back.
	m.e = New(Options{
		Shards:     shards,
		Compressor: tailCompressor{},
		Clock:      func() time.Time { return time.Unix(0, m.now.Load()) },
	})
	return m
}

func (m *model) key() string { return modelKey(m.rng.Intn(m.span)) }

// modelKey names key i. One in seven is past maxShortKey bytes, where the
// record keeps the key length in a uvarint of its own.
func modelKey(i int) string {
	if i%7 == 0 {
		return fmt.Sprintf("a-key-too-long-for-the-header-byte:k%d", i)
	}
	return fmt.Sprintf("k%d", i)
}

// val draws a value: short or long, and half the time with a zero tail
// the compressor strips.
func (m *model) val() []byte {
	n := m.rng.Intn(40)
	if m.rng.Intn(4) == 0 {
		n = 100 + m.rng.Intn(400)
	}
	return zeroTailed(m.rng, n, m.rng.Intn(2)*m.rng.Intn(64))
}

// live is the model's lazy expiry: a lapsed entry reads as absent.
func (m *model) live(k string) *mval {
	if v := m.keys[k]; v != nil && (v.exp == 0 || m.now.Load() < v.exp) {
		return v
	}
	return nil
}

func (m *model) setStr(k string, v []byte) { m.keys[k] = &mval{kind: KindString, str: v} }

// coll returns the live collection of kind at k, creating it as the engine
// does (over an absent or lapsed entry). ok is false on a type clash.
func (m *model) coll(k string, kind Kind) (*mval, bool) {
	v := m.live(k)
	if v == nil {
		v = &mval{kind: kind, set: map[string]bool{}, hash: map[string]string{}, zset: map[string]float64{}}
		m.keys[k] = v
	}
	return v, v.kind == kind
}

// typed mirrors the engine's lookup for ops that do not create: the live entry when
// it has the kind, and the engine's error otherwise.
func (m *model) typed(k string, kind Kind) (*mval, error) {
	v := m.live(k)
	switch {
	case v == nil:
		return nil, ErrNotFound
	case v.kind != kind:
		return nil, ErrWrongType
	}
	return v, nil
}

func (m *model) dropIfEmpty(k string, v *mval) {
	if v.empty() {
		delete(m.keys, k)
	}
}

func (m *model) fail(op string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s: %s", op, fmt.Sprintln(args...))
}

// step applies one random operation to both sides and compares results.
func (m *model) step(shrinking bool) {
	m.t.Helper()
	e, k := m.e, m.key()
	op := m.rng.Intn(100)
	if shrinking && op < 60 {
		op = 30 + m.rng.Intn(8) // deletes dominate
	}
	switch {
	case op < 22:
		v := m.val()
		if err := e.Set(k, v); err != nil {
			m.fail("Set", err)
		}
		m.setStr(k, v)
	case op < 25:
		v := m.val()
		ok, err := e.SetNX(k, v)
		want := m.live(k) == nil
		if err != nil || ok != want {
			m.fail("SetNX", k, ok, err, "want", want)
		}
		if want {
			m.setStr(k, v)
		}
	case op < 30:
		var old []byte
		cur := m.live(k)
		if cur != nil && cur.kind == KindString && m.rng.Intn(3) > 0 {
			old = cur.str
		} else if m.rng.Intn(2) == 0 {
			old = []byte("no such value")
		}
		var want error
		switch {
		case cur == nil && old != nil:
			want = ErrCASMismatch
		case cur != nil && cur.kind != KindString:
			want = ErrWrongType
		case cur != nil && (old == nil || !bytes.Equal(old, cur.str)):
			want = ErrCASMismatch
		}
		v := m.val()
		if err := e.CompareAndSet(k, old, v); err != want {
			m.fail("CompareAndSet", k, err, "want", want)
		}
		if want == nil {
			m.setStr(k, v)
		}
	case op < 38:
		keys := []string{k}
		for i := m.rng.Intn(4); i > 0; i-- {
			keys = append(keys, m.key())
		}
		want := 0
		for _, dk := range keys {
			if m.live(dk) != nil {
				want++
			}
			delete(m.keys, dk)
		}
		if got := e.BatchDel(keys); got != want {
			m.fail("BatchDel", keys, got, "want", want)
		}
	case op < 43:
		var pairs []KV
		for i := 1 + m.rng.Intn(6); i > 0; i-- {
			pairs = append(pairs, KV{m.key(), m.val()})
		}
		if err := e.MSet(pairs); err != nil {
			m.fail("MSet", err)
		}
		for _, p := range pairs {
			m.setStr(p.Key, p.Val)
		}
	case op < 48:
		var keys []string
		for i := 1 + m.rng.Intn(6); i > 0; i-- {
			keys = append(keys, m.key())
		}
		vals, wrong, err := e.MGetDetail(keys)
		if err != nil {
			m.fail("MGetDetail", err)
		}
		for i, gk := range keys {
			cur := m.live(gk)
			isStr := cur != nil && cur.kind == KindString
			if (vals[i] != nil) != isStr || (isStr && !bytes.Equal(vals[i], cur.str)) || wrong[i] != (cur != nil && !isStr) {
				m.fail("MGetDetail", gk, vals[i], wrong[i])
			}
		}
	case op < 51:
		delta := int64(m.rng.Intn(7) - 3)
		cur := m.live(k)
		var base int64
		var want error
		if cur != nil {
			if cur.kind != KindString {
				want = ErrWrongType
			} else if base, want = parseInt(cur.str); want != nil {
				want = ErrNotInteger
			}
		}
		got, err := e.IncrBy(k, delta)
		if err != want || (err == nil && got != base+delta) {
			m.fail("IncrBy", k, got, err, "want", base+delta, want)
		}
		if want == nil {
			m.setStr(k, appendInt(nil, base+delta))
		}
	case op < 58:
		at := m.now.Load() + int64(m.rng.Intn(40)) - 2 // a few already lapsed
		cur := m.live(k)
		if got := e.ExpireAt(k, at); got != (cur != nil) {
			m.fail("ExpireAt", k, got)
		}
		if cur != nil {
			cur.exp = at
		}
	case op < 61:
		cur := m.live(k)
		if got := e.Persist(k); got != (cur != nil) {
			m.fail("Persist", k, got)
		}
		if cur != nil {
			cur.exp = 0
		}
	case op < 64:
		cur := m.keys[k]
		want := cur != nil && m.live(k) == nil
		if got := e.TakeExpired(k); got != want {
			m.fail("TakeExpired", k, got, "want", want)
		}
		if want {
			delete(m.keys, k)
		}
	case op < 65:
		want := 0
		for dk := range m.keys {
			if m.live(dk) == nil {
				want++
				delete(m.keys, dk)
			}
		}
		if got := sweepExpired(e, 1<<30); got != want {
			m.fail("sweepExpired", got, "want", want)
		}
	case op < 66:
		m.now.Add(int64(m.rng.Intn(10)))
	case op < 67 && m.rng.Intn(8) == 0:
		e.FlushAll()
		m.keys = map[string]*mval{}
	case op < 72:
		elem := m.val()
		v, ok := m.coll(k, KindList)
		var err error
		if m.rng.Intn(2) == 0 {
			_, err = e.LPush(k, elem)
			if ok {
				v.list = append([][]byte{elem}, v.list...)
			}
		} else {
			_, err = e.RPush(k, elem)
			if ok {
				v.list = append(v.list, elem)
			}
		}
		if (err == nil) != ok {
			m.fail("Push", k, err)
		}
	case op < 75:
		v, want := m.typed(k, KindList)
		got, err := e.RPop(k)
		if err != want || (err == nil && !sameBytes(got, v.list[len(v.list)-1])) {
			m.fail("RPop", k, got, err, "want", want)
		}
		if want == nil {
			v.list = v.list[:len(v.list)-1]
			m.dropIfEmpty(k, v)
		}
	case op < 79:
		member := fmt.Sprint(m.rng.Intn(6))
		v, ok := m.coll(k, KindSet)
		added, err := e.SAdd(k, member)
		if (err == nil) != ok || (ok && (added == 1) == v.set[member]) {
			m.fail("SAdd", k, added, err)
		}
		if ok {
			v.set[member] = true
		}
	case op < 82:
		member := fmt.Sprint(m.rng.Intn(6))
		v, want := m.typed(k, KindSet)
		if want == ErrNotFound {
			want = nil
		}
		removed, err := e.SRem(k, member)
		if err != want || (v != nil && (removed == 1) != v.set[member]) {
			m.fail("SRem", k, removed, err)
		}
		if v != nil {
			delete(v.set, member)
			m.dropIfEmpty(k, v)
		}
	case op < 86:
		field, fv := fmt.Sprint(m.rng.Intn(6)), m.val()
		v, ok := m.coll(k, KindHash)
		_, had := v.hash[field]
		isNew, err := e.HSet(k, field, fv)
		if (err == nil) != ok || (ok && isNew == had) {
			m.fail("HSet", k, isNew, err)
		}
		if ok {
			v.hash[field] = string(fv)
		}
	case op < 89:
		field := fmt.Sprint(m.rng.Intn(6))
		v, want := m.typed(k, KindHash)
		if want == ErrNotFound {
			want = nil
		}
		n, err := e.HDel(k, field)
		if err != want {
			m.fail("HDel", k, n, err)
		}
		if v != nil {
			if _, had := v.hash[field]; had != (n == 1) {
				m.fail("HDel", k, n)
			}
			delete(v.hash, field)
			m.dropIfEmpty(k, v)
		}
	case op < 93:
		member, score := fmt.Sprint(m.rng.Intn(6)), float64(m.rng.Intn(10))
		v, ok := m.coll(k, KindZSet)
		_, had := v.zset[member]
		isNew, err := e.ZAdd(k, member, score)
		if (err == nil) != ok || (ok && isNew == had) {
			m.fail("ZAdd", k, isNew, err)
		}
		if ok {
			v.zset[member] = score
		}
	case op < 95:
		member := fmt.Sprint(m.rng.Intn(6))
		v, want := m.typed(k, KindZSet)
		if want == ErrNotFound {
			want = nil
		}
		removed, err := e.ZRem(k, member)
		if err != want {
			m.fail("ZRem", k, removed, err)
		}
		if v != nil {
			if _, had := v.zset[member]; had != removed {
				m.fail("ZRem", k, removed)
			}
			delete(v.zset, member)
			m.dropIfEmpty(k, v)
		}
	case op < 96:
		// Evict takes one key the stripe holds, lapsed or not, that is not
		// pinned, and finds one if there is one.
		si := m.rng.Intn(e.NumShards())
		got, ok := evictKey(e, si, modelPinned)
		if ok {
			if m.keys[got] == nil || e.ShardIndex(got) != si || modelPinned([]byte(got)) {
				m.fail("Evict", si, got)
			}
			delete(m.keys, got)
			break
		}
		for held := range m.keys {
			if e.ShardIndex(held) == si && !modelPinned([]byte(held)) {
				m.fail("Evict found nothing in stripe", si, "which holds", held)
			}
		}
	default:
		// LoadEncoded installs a set over whatever the key held.
		it := &item{kind: KindSet, set: map[string]struct{}{}}
		v := &mval{kind: KindSet, set: map[string]bool{}}
		for i := 1 + m.rng.Intn(4); i > 0; i-- {
			member := fmt.Sprint(m.rng.Intn(6))
			it.set[member], v.set[member] = struct{}{}, true
		}
		blob, _ := encodeCollectionLocked(it)
		if err := e.LoadEncoded(k, blob); err != nil {
			m.fail("LoadEncoded", err)
		}
		m.keys[k] = v
	}
}

// sameBytes is bytes.Equal that also tells nil from empty: an element the
// model holds is never nil, so one the engine reads back must not be either.
func sameBytes(got, want []byte) bool {
	return (got == nil) == (want == nil) && bytes.Equal(got, want)
}

// modelPinned is the model's eviction pin: every key that ends in 7.
func modelPinned(key []byte) bool { return key[len(key)-1] == '7' }

// check compares every key's readable state, then the engine's books and
// index invariants.
func (m *model) check() {
	m.t.Helper()
	e := m.e
	if got := e.Len(); got != len(m.keys) {
		m.fail("Len", got, "want", len(m.keys))
	}
	for i := 0; i < m.span; i++ {
		k := modelKey(i)
		v := m.live(k)
		if v == nil {
			if e.Exists(k) || e.Type(k) != KindNone {
				m.fail("absent key resolves", k, e.Type(k))
			}
			if _, err := e.Get(k); err != ErrNotFound {
				m.fail("Get absent", k, err)
			}
			continue
		}
		if got := e.Type(k); got != v.kind {
			m.fail("Type", k, got, "want", v.kind)
		}
		ttl, has := e.TTL(k)
		if has != (v.exp != 0) || (has && ttl != time.Duration(v.exp-m.now.Load())) {
			m.fail("TTL", k, ttl, has, "want deadline", v.exp)
		}
		switch v.kind {
		case KindString:
			if got, err := e.Get(k); err != nil || !bytes.Equal(got, v.str) {
				m.fail("Get", k, got, err, "want", v.str)
			}
		case KindList:
			got, err := e.LRange(k, 0, -1)
			if err != nil || len(got) != len(v.list) {
				m.fail("LRange", k, len(got), err)
			}
			for i := range got {
				if !sameBytes(got[i], v.list[i]) {
					m.fail("LRange", k, i)
				}
			}
		case KindSet:
			got, err := e.SMembers(k)
			if err != nil || len(got) != len(v.set) {
				m.fail("SMembers", k, got, err)
			}
			for _, member := range got {
				if !v.set[member] {
					m.fail("SMembers", k, member)
				}
			}
		case KindHash:
			got, err := e.HGetAll(k)
			if err != nil || len(got) != len(v.hash) {
				m.fail("HGetAll", k, len(got), err)
			}
			for _, f := range got {
				if want, ok := v.hash[f.Field]; !ok || f.Value == nil || want != string(f.Value) {
					m.fail("HGetAll", k, f.Field, f.Value)
				}
			}
		case KindZSet:
			got, err := e.ZRange(k, 0, -1)
			if err != nil || len(got) != len(v.zset) {
				m.fail("ZRange", k, got, err)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool {
				return zless(zentry{got[i].Member, got[i].Score}, zentry{got[j].Member, got[j].Score})
			}) {
				m.fail("ZRange order", k, got)
			}
			for _, zm := range got {
				if sc, ok := v.zset[zm.Member]; !ok || sc != zm.Score {
					m.fail("ZRange", k, zm)
				}
			}
		}
	}
	if err := checkBooks(e); err != nil {
		m.t.Fatal(err)
	}
}

// checkBooks recomputes every stripe's accounts from what it holds and
// verifies that every record is reachable through find, that no key is both
// a string and a collection, that an empty stripe holds neither table nor
// page, and that the index's and the slab's own invariants hold (checkIndex,
// checkSlab).
func checkBooks(e *Engine) error {
	for si, s := range e.shards {
		s.mu.RLock()
		ix := &s.strs
		mem, payload := ix.charge, int64(0)
		var err error
		ix.each(func(rec record) bool {
			f := rec.parse()
			if f.size > slabLimit {
				mem += allocBytes(f.size) + ownEntryBytes
			} else {
				mem += int64(slotSize(f.size))
			}
			payload += f.payload()
			key := string(f.key)
			if at, got := ix.find(slotHash(fnv1a(key)), key); at < 0 || &got[0] != &rec[0] {
				err = fmt.Errorf("record of %q not reachable from its home slot", key)
			}
			if _, both := s.colls[key]; both {
				err = fmt.Errorf("%q is both a string and a collection", key)
			}
			return err == nil
		})
		for key, it := range s.colls {
			if it.size() == 0 {
				err = fmt.Errorf("collection %q is empty", key)
			}
			mem += it.memBytes
			payload += it.payload
		}
		switch {
		case err != nil:
		case ix.n == 0 && (len(ix.recs.pages) != 0 || len(ix.recs.own) != 0):
			err = fmt.Errorf("empty index keeps %d pages", len(ix.recs.pages))
		case mem != s.memUsed.Load() || payload != s.payload.Load():
			err = fmt.Errorf("accounts say mem %d payload %d, contents say %d and %d",
				s.memUsed.Load(), s.payload.Load(), mem, payload)
		default:
			if err = checkIndex(ix); err == nil {
				err = checkSlab(&ix.recs)
			}
		}
		s.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("stripe %d: %w", si, err)
		}
	}
	return nil
}

// checkIndex verifies the table's shape: a length that fills its two
// allocations, charged as allocated; between 9/16 and 7/8 full unless it is
// as short as tables get; every entry under the probe word of its key's
// hash, at its home or within reach after it with no empty slot between;
// entries in home order; the last slot empty; the count right; and no table
// at all without an entry.
func checkIndex(ix *index) error {
	size := len(ix.meta)
	if ix.n == 0 {
		if size != 0 || ix.spill != nil || ix.charge != 0 {
			return fmt.Errorf("empty index keeps a %d-slot table, %d spilled, %d bytes charged", size, len(ix.spill), ix.charge)
		}
		return nil
	}
	charge, shrunk := allocBytes(2*size)+allocBytes(4*size), tableLen(max(minSlots, size*4/5))
	if ix.spill != nil {
		charge += allocBytes(4 * cap(ix.spill))
	}
	switch {
	case size < minSlots || size != tableLen(size) || len(ix.refs) != size || int(ix.homes) != size-min(maxTail, size/2):
		return fmt.Errorf("table of %d slots, %d refs, %d homes", size, len(ix.refs), ix.homes)
	case ix.charge != charge:
		return fmt.Errorf("table of %d slots and spill of %d charged %d bytes, allocated %d", size, cap(ix.spill), ix.charge, charge)
	case ix.n*8 > size*7 || (ix.n*16 < size*9 && shrunk < size && shrunk >= 2*maxTail && ix.spill == nil):
		// (A table shorter than that may have been tried and found too
		// short, its tail being under a full reach, and what has spilled
		// from this one may have been what the shorter one could not place.)
		return fmt.Errorf("%d entries in %d slots", ix.n, size)
	case ix.spill != nil && size < 2*maxTail:
		return fmt.Errorf("%d spilled beside a table of %d slots, which is free to grow", len(ix.spill), size)
	case ix.meta[size-1] != 0:
		return fmt.Errorf("last slot of %d is in use", size)
	case ix.spill != nil && len(ix.spill) == 0:
		return fmt.Errorf("empty spill kept")
	}
	n, last := len(ix.spill), 0
	for i, m := range ix.meta {
		if m == 0 {
			continue
		}
		n++
		h := slotHash(fnv1a(record(ix.recs.at(ix.refs[i] &^ refBit)).key()))
		home := ix.home(h)
		switch {
		case m != word(h, home):
			return fmt.Errorf("slot %d: probe word %#x, its key's is %#x", i, m, word(h, home))
		case i < home || i-home > reach || away(i, m) != i-home:
			return fmt.Errorf("slot %d: entry of home %d", i, home)
		case home < last:
			return fmt.Errorf("slot %d: entry of home %d behind one of home %d", i, home, last)
		}
		for j := home; j < i; j++ {
			if ix.meta[j] == 0 {
				return fmt.Errorf("slot %d: empty slot %d between the entry and its home %d", i, j, home)
			}
		}
		last = home
	}
	if n != ix.n {
		return fmt.Errorf("index counts %d entries, holds %d", ix.n, n)
	}
	return nil
}

// TestEngineAgainstModel drives every keyed operation on overlapping keys
// against a plain-map model, through several cycles of the population
// growing to thousands of keys and shrinking back to a handful, so each
// stripe's table passes through a dozen lengths and back to none under every
// kind of entry: in one stripe, where the hash's low bits tell keys apart,
// and in sixteen, where they do not.
func TestEngineAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, shards := range []int{1, 16} {
			m := newModel(t, seed, shards)
			sizes := map[int]bool{}
			for cycle := 0; cycle < 3; cycle++ {
				for _, phase := range []struct {
					span, steps int
					shrinking   bool
				}{{6000, 12000, false}, {6000, 14000, true}, {40, 3000, false}, {40, 1500, true}} {
					m.span = phase.span
					for i := 0; i < phase.steps; i++ {
						m.step(phase.shrinking)
						if i%500 == 499 {
							m.check()
							sizes[len(m.e.shards[0].strs.meta)] = true
						}
					}
				}
			}
			if len(sizes) < 8 {
				t.Errorf("seed %d, %d stripes: stripe 0's table only took lengths %v; the walk did not cycle it", seed, shards, sizes)
			}
		}
	}
}

// stripeValue is the self-describing value TestOneStripeReadersAndOverwriters
// writes: key index, version and body length, then a body that is a
// function of the three, then a tail of zeros (what tailCompressor strips)
// whose length is one too. sameStripeValue regenerates a value from its
// own header, so a value that passes is byte-equal to one a writer made
// for that key, whichever slot it was read from.
func stripeValue(key, version, n int) []byte {
	v := make([]byte, 8, 8+n+8*(version%5))
	v[0] = byte(key)
	v[1] = byte(n)
	v[2] = byte(n >> 8)
	v[3] = 0xA5
	v[4], v[5], v[6], v[7] = byte(version), byte(version>>8), byte(version>>16), byte(version>>24)
	x := uint32(key+1)*2654435761 ^ uint32(version)*40503 ^ uint32(n)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		v = append(v, byte(x>>24)|1)
	}
	return v[:cap(v)]
}

func sameStripeValue(key int, v []byte) bool {
	if len(v) < 8 || int(v[0]) != key {
		return false
	}
	n := int(v[1]) | int(v[2])<<8
	version := int(v[4]) | int(v[5])<<8 | int(v[6])<<16 | int(v[7])<<24
	return bytes.Equal(v, stripeValue(key, version, n))
}

// TestOneStripeReadersAndOverwriters is the -race leg of the reader rule:
// with every key on one stripe, writers overwrite records with values of
// other slot sizes (own allocations included), delete and re-create them,
// set a first TTL (which moves the record to a larger slot), rewrite
// deadlines in place and evict in bursts that shrink the table, so freed
// slots are reused at once; readers Get and MGet, and a walker snapshots
// the stripe. A reader that carried an alias of a slot out of the lock, at
// any of the three sites that copy, returns bytes that are no version of
// its key. It is also the -race leg of the reference bit: the two readers'
// hits set it under the read lock, at once and while entries shift, tables
// resize and the hand clears it under the write lock.
func TestOneStripeReadersAndOverwriters(t *testing.T) {
	for _, c := range []compress.Compressor{nil, tailCompressor{}} {
		oneStripeReadersAndOverwriters(t, Options{Shards: 1, Compressor: c})
	}
}

func oneStripeReadersAndOverwriters(t *testing.T, opts Options) {
	e := New(opts)
	const keys, rounds = 64, 4000
	key := func(i int) string { return fmt.Sprintf("hot%02d", i) }
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	var version atomic.Int64
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				ki := rng.Intn(keys)
				k := key(ki)
				switch rng.Intn(10) {
				case 0:
					e.Del(k)
				case 1, 2:
					e.Expire(k, time.Hour)
				case 3:
					e.Persist(k)
				case 4:
					for n := rng.Intn(keys); n > 0; n-- {
						if got, ok := evictKey(e, 0, modelPinned); ok && modelPinned([]byte(got)) {
							t.Errorf("Evict took %s, which is pinned", got)
						}
					}
				default:
					n := rng.Intn(300)
					if rng.Intn(16) == 0 {
						n = slabLimit + rng.Intn(300)
					}
					e.Set(k, stripeValue(ki, int(version.Add(1)), n))
				}
			}
		}(int64(w))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				ki, kj := rng.Intn(keys), rng.Intn(keys)
				if v, err := e.Get(key(ki)); err == nil && !sameStripeValue(ki, v) {
					t.Errorf("Get %s: %.24x... (%d bytes) is no version of it", key(ki), v, len(v))
					return
				}
				vals, _ := e.MGet([]string{key(ki), key(kj)})
				for i, ki := range []int{ki, kj} {
					if v := vals[i]; v != nil && !sameStripeValue(ki, v) {
						t.Errorf("MGet %s: %.24x... (%d bytes) is no version of it", key(ki), v, len(v))
						return
					}
				}
			}
		}(int64(100 + r))
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			err := e.ForEachEncodedChunked(512, func(chunk []SnapEntry) bool {
				for _, p := range chunk {
					var ki int
					fmt.Sscanf(p.Key, "hot%d", &ki)
					if !sameStripeValue(ki, p.Val) {
						t.Errorf("walk %s: %.24x... (%d bytes) is no version of it", p.Key, p.Val, len(p.Val))
					}
				}
				return !t.Failed()
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Writers run a fixed number of rounds; readers and the walker run
	// until the writers are done.
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
}

// TestPMemReadersAndOverwriters is the reader rule's PMem leg: a value's
// arena ref must be resolved before the stripe read lock is released,
// because an overwrite of the key frees the ref and the arena hands the
// offset to the next Put of its size, which may be another key's. Two keys
// trade 200-byte values through one arena size class while readers Get,
// MGet and walk; each value is its key's letter repeated, so a reader
// that lands on a recycled offset sees the other key's bytes (or a length
// mismatch error).
func TestPMemReadersAndOverwriters(t *testing.T) {
	for _, shards := range []int{1, DefaultShards} {
		arena := pmem.NewArena(pmem.OpenVolatile(1<<20, pmem.Latency{}), 0)
		e := New(Options{Shards: shards, Arena: arena, PMemMin: 64})
		valOf := func(k string) []byte { return bytes.Repeat([]byte(k), 200) }
		e.Set("a", valOf("a"))
		e.Set("b", valOf("b"))
		var stop atomic.Bool
		var readers sync.WaitGroup
		check := func(op, k string, v []byte, err error) bool {
			if err != nil || !bytes.Equal(v, valOf(k)) {
				t.Errorf("shards=%d: %s %s = %.8q... (%d bytes), %v", shards, op, k, v, len(v), err)
				return false
			}
			return true
		}
		reader := func(read func() bool) {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for !stop.Load() && read() {
				}
			}()
		}
		reader(func() bool {
			v, err := e.Get("a")
			return check("Get", "a", v, err)
		})
		reader(func() bool {
			vals, err := e.MGet([]string{"b", "a"})
			if err != nil {
				return check("MGet", "b", nil, err)
			}
			return check("MGet", "b", vals[0], nil) && check("MGet", "a", vals[1], nil)
		})
		reader(func() bool {
			ok := true
			err := e.ForEachEncodedChunked(0, func(chunk []SnapEntry) bool {
				for _, p := range chunk {
					if ok = check("walk", p.Key, p.Val, nil); !ok {
						break
					}
				}
				return ok
			})
			return ok && (err == nil || check("walk", "", nil, err))
		})
		for i := 0; i < 15000; i++ {
			e.Set("a", valOf("a"))
			e.Set("b", valOf("b"))
			if i%64 == 0 {
				// Under the write lock the whole time, but the same ref.
				if err := e.CompareAndSet("a", valOf("a"), valOf("a")); err != nil {
					t.Errorf("shards=%d: CompareAndSet: %v", shards, err)
				}
			}
		}
		stop.Store(true)
		readers.Wait()
		if err := checkBooks(e); err != nil {
			t.Fatal(err)
		}
	}
}
