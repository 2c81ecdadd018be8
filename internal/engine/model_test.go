package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
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
// record keeps the key length in a uvarint of its own; of the rest, some
// have a digit run that packs, and some a 0xFF byte as well.
func modelKey(i int) string {
	switch {
	case i%7 == 0:
		return fmt.Sprintf("a-key-too-long-for-the-header-byte:k%d", i)
	case i%5 == 0:
		return fmt.Sprintf("k%015d", i)
	case i%11 == 0:
		return fmt.Sprintf("\xffk%06d", i)
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
			} else if base, want = strconv.ParseInt(string(cur.str), 10, 64); want != nil {
				want = ErrNotInteger
			}
		}
		got, err := e.IncrBy(k, delta)
		if err != want || (err == nil && got != base+delta) {
			m.fail("IncrBy", k, got, err, "want", base+delta, want)
		}
		if want == nil {
			m.setStr(k, strconv.AppendInt(nil, base+delta, 10))
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
	case op < 67 && m.rng.Intn(7) < 2:
		// A re-model: one stripe's key model set back to zero, so that its
		// keys take their full forms beside the model forms of keys small
		// enough for it until a rebuild widens it again; learned now from
		// every key the stripe has; or given the shape of the op's key, in
		// a size that may be too small for some keys of it.
		s := e.shards[m.rng.Intn(e.NumShards())]
		s.mu.Lock()
		held := s.strs.held()
		switch m.rng.Intn(3) {
		case 0:
			s.strs.setModel(keyModel{})
		case 1:
			s.strs.remodel()
		default:
			s.strs.setModel(shapedModel(s.strs.model, k, m.rng.Intn(256)))
		}
		s.memUsed.Add(s.strs.held() - held)
		s.mu.Unlock()
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
		v := &mval{kind: KindSet, set: map[string]bool{}}
		for i := 1 + m.rng.Intn(4); i > 0; i-- {
			v.set[fmt.Sprint(m.rng.Intn(6))] = true
		}
		blob := []byte{typedMarker, byte(KindSet), byte(len(v.set))}
		for member := range v.set {
			blob = appendLenString(blob, member)
		}
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
				a, b := got[i], got[j]
				return a.Score < b.Score || a.Score == b.Score && a.Member < b.Member
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

// checkBooks recomputes every stripe's accounts from what it holds (keys
// unpacked under the stripe's model, and what packing took off them) and
// verifies that every key is stored in its packed form under that model,
// that every record is bare exactly when the stripe's rule says so, that
// every record is reachable through find, that every
// collection is a canonical blob (so holds an element), that an empty
// stripe holds neither table nor page, and that the index's and the slab's
// own invariants hold (checkIndex, checkSlab).
func checkBooks(e *Engine) error {
	for si, s := range e.shards {
		s.mu.RLock()
		ix := &s.strs
		mem, users, packed := ix.charge, int64(0), int64(0)
		var err error
		ix.each(func(rec record) bool {
			f := ix.parse(rec)
			if f.size > slabLimit {
				mem += allocBytes(f.size) + ownEntryBytes
			} else {
				mem += int64(slotSize(f.size))
			}
			key := ix.model.unpackKey(f.key)
			users += payload(f.flags, len(key), len(f.val))
			packed += int64(len(key) - len(f.key))
			if string(ix.pack(key)) != string(f.key) {
				err = fmt.Errorf("%q is stored as %x, which is not its packed form under %v", key, f.key, ix.model)
			}
			if at, got := ix.findKey(key); at < 0 || !sameRecord(got, rec) {
				err = fmt.Errorf("record of %q not reachable from its home slot", key)
			}
			if rec.isColl() && checkBlob(f.val) != nil {
				err = fmt.Errorf("collection %q is not a canonical blob of at least one element", key)
			}
			if rec.bare != ix.bare(f.key, f.flags) || rec.bare && rec.head != ix.bareHead() {
				err = fmt.Errorf("record of %q (flags %#x, %d B key) is bare: %v, under %v", key, f.flags, len(f.key), rec.bare, ix.model)
			}
			return err == nil
		})
		switch {
		case err != nil:
		case ix.n == 0 && (len(ix.recs.pages) != 0 || len(ix.recs.own) != 0):
			err = fmt.Errorf("empty index keeps %d pages", len(ix.recs.pages))
		case mem != s.memUsed.Load() || users != s.payload.Load() || packed != ix.packed:
			err = fmt.Errorf("accounts say mem %d payload %d packed %d, contents say %d, %d and %d",
				s.memUsed.Load(), s.payload.Load(), ix.packed, mem, users, packed)
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

// checkIndex verifies the tables' shape: lengths that fill their two
// allocations, charged as allocated with the spill; the table between 9/16
// and 7/8 full unless it is as short as tables get; in each table every
// entry under the probe word of its key's hash, at its home or within reach
// after it with no empty slot between (from the front on, in the old
// table), in hash order, and the last slot empty; while a resize is under
// way, nothing in the new table hashing above bound and the old table's
// first entry in slot front with hash bound; the count right; and no table
// at all without an entry.
func checkIndex(ix *index) error {
	size := len(ix.words)
	resizing := ix.old.words != nil
	if ix.n == 0 {
		if size != 0 || resizing || ix.spill != nil || ix.charge != 0 {
			return fmt.Errorf("empty index keeps a %d-slot table, %d old, %d spilled, %d bytes charged", size, len(ix.old.words), len(ix.spill), ix.charge)
		}
		return nil
	}
	charge, shrunk := ix.table.bytes()+ix.old.bytes(), tableLen(max(minSlots, size*4/5))
	if ix.spill != nil {
		charge += allocBytes(8 * cap(ix.spill))
	}
	switch {
	case ix.charge != charge:
		return fmt.Errorf("tables of %d and %d slots and spill of %d charged %d bytes, allocated %d", size, len(ix.old.words), cap(ix.spill), ix.charge, charge)
	case ix.n*8 > size*7 || (ix.n*16 < size*9 && shrunk < size && shrunk >= 2*maxTail && ix.spill == nil):
		// (A table shorter than that may have been tried and found too
		// short, its tail being under a full reach, and what has spilled
		// from this one may have been what the shorter one could not place.)
		return fmt.Errorf("%d entries in %d slots", ix.n, size)
	case ix.spill != nil && size < 2*maxTail && !resizing:
		return fmt.Errorf("%d spilled beside a table of %d slots, which is free to grow", len(ix.spill), size)
	case ix.spill != nil && len(ix.spill) == 0:
		return fmt.Errorf("empty spill kept")
	}
	n := len(ix.spill)
	for _, t := range []*table{&ix.table, &ix.old} {
		size := len(t.words)
		if t.words == nil {
			continue
		}
		switch {
		case size < minSlots || int(t.homes) != size-min(maxTail, size/2):
			return fmt.Errorf("table of %d slots, %d homes", size, t.homes)
		case t.hw != ix.highWidth() || len(t.high) != t.hw*size:
			return fmt.Errorf("table of %d slots with %d bytes of high, %d a slot, in an index of %d", size, len(t.high), t.hw, ix.highWidth())
		case size != tableLen(size):
			return fmt.Errorf("table of %d slots does not fill its word array", size)
		case t.words[size-1] != 0:
			return fmt.Errorf("last slot of %d is in use", size)
		}
		first, last := true, uint32(0)
		for i, m := range t.words {
			if m == 0 {
				if t.refOf(i, 0) != 0 {
					return fmt.Errorf("empty slot %d of %d keeps a ref", i, size)
				}
				continue
			}
			n++
			h := ix.keyHash(t.refOf(i, m))
			home, w := t.word(h)
			switch {
			case m&probeMask != w:
				return fmt.Errorf("slot %d of %d: probe word %#x, its key's is %#x", i, size, m, w)
			case i < home || i-home > reach || away(i, m) != i-home:
				return fmt.Errorf("slot %d of %d: entry of home %d", i, size, home)
			case !first && h < last:
				return fmt.Errorf("slot %d of %d: entry of hash %#x behind one of hash %#x", i, size, h, last)
			case t == &ix.table && resizing && h > ix.bound:
				return fmt.Errorf("slot %d of %d: entry of hash %#x in the new table, above the bound %#x", i, size, h, ix.bound)
			case t == &ix.old && first && (i != ix.front || h != ix.bound):
				return fmt.Errorf("old table's first entry in slot %d of hash %#x, front %d bound %#x", i, h, ix.front, ix.bound)
			}
			for j := max(home, ix.floor(t)); j < i; j++ {
				if t.words[j] == 0 {
					return fmt.Errorf("slot %d of %d: empty slot %d between the entry and its home %d", i, size, j, home)
				}
			}
			first, last = false, h
		}
		if t == &ix.old && first {
			return fmt.Errorf("an empty old table of %d slots kept", size)
		}
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
							sizes[len(m.e.shards[0].strs.words)] = true
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
					expire(e, k, time.Hour)
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
				vals, _ := mget(e, []string{key(ki), key(kj)})
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

// TestReadersAcrossSpreadResizes is the -race leg of a resize spread over
// writes: one stripe grows to 5000 keys and shrinks back to none, so for
// most of the run a resize is under way and entries move from the old
// table to the new under the write lock, while readers Get every key that
// is certainly there and find it with its value, a sweeper scans the
// stripe under the read lock from the hash it stopped at, and a second
// writer overwrites keys (each overwrite moves entries too).
func TestReadersAcrossSpreadResizes(t *testing.T) {
	e := New(Options{Shards: 1})
	const n = 5000
	key := func(i int) string { return fmt.Sprintf("key:%06d", i) }
	val := func(i int) []byte { return []byte(strconv.Itoa(i)) }
	// Keys [0, alive) are certainly present: the writer raises alive after
	// an insert and lowers it before a delete.
	var alive atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < n; i++ {
			e.Set(key(i), val(i))
			alive.Store(int64(i + 1))
		}
		for i := n - 1; i >= 0; i-- {
			alive.Store(int64(i))
			e.Del(key(i))
		}
	}()
	errs := make(chan error, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				a := alive.Load()
				if a == 0 {
					continue
				}
				i := int(rng.Int63n(a))
				if v, err := e.Get(key(i)); err != nil || string(v) != string(val(i)) {
					if int64(i) < alive.Load() { // not deleted since
						errs <- fmt.Errorf("Get(%s) = %q, %v with %d keys certainly present", key(i), v, err, alive.Load())
						return
					}
				}
			}
		}(int64(r))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if got := e.CollectExpired(64); len(got) != 0 {
				errs <- fmt.Errorf("the sweep found %d lapsed keys where none has a TTL", len(got))
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for !stop.Load() {
			if a := alive.Load(); a > 0 {
				i := int(rng.Int63n(a))
				e.CompareAndSet(key(i), val(i), val(i)) // an overwrite, never a resurrection
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := checkBooks(e); err != nil || e.Len() != 0 {
		t.Fatalf("after the run: %d keys, %v", e.Len(), err)
	}
}

// TestReadersAcrossWidening is the -race leg of an index widening its
// highs: one stripe takes 852-byte values, bare records in page slots,
// until its slab passes 4 MiB and hands out an address a 1-byte high cannot
// hold, while readers Get and MGetDetail keys certainly there and find each
// with its value. The fill is laid out so that the widening comes while a
// resize is under way, and widens the old table with the new: entries on
// both sides of the bound keep their slots and their refs.
func TestReadersAcrossWidening(t *testing.T) {
	e := New(Options{Shards: 1})
	ix := &e.shards[0].strs
	const n = 5500
	key := func(i int) string { return fmt.Sprintf("key:%06d", i) }
	// 852 bytes: the 4 865th key widens the tables, mid-resize.
	val := func(i int) []byte { return bytes.Repeat([]byte(key(i)[4:]), 142) }
	var alive atomic.Int64 // keys [0, alive) are certainly present
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	read := func(batch bool, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		keys := make([]string, 8)
		for !stop.Load() {
			a := alive.Load()
			if a == 0 {
				continue
			}
			idx := make([]int, len(keys))
			for j := range keys {
				idx[j] = int(rng.Int63n(a))
				keys[j] = key(idx[j])
			}
			got := make([][]byte, len(keys))
			if batch {
				got, _, _ = e.MGetDetail(keys)
			} else {
				got[0], _ = e.Get(keys[0])
				idx = idx[:1]
			}
			for j, i := range idx {
				if !bytes.Equal(got[j], val(i)) {
					errs <- fmt.Errorf("%s read %d bytes, not the %d written", keys[j], len(got[j]), len(val(i)))
					return
				}
			}
		}
	}
	wg.Add(2)
	go read(false, 1)
	go read(true, 2)
	widenedAt, midResize := -1, false
	for i := 0; i < n; i++ {
		resizing, wide := ix.old.words != nil, ix.wide
		e.Set(key(i), val(i))
		if !wide && ix.wide {
			widenedAt, midResize = i, resizing
		}
		alive.Store(int64(i + 1))
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("widened at key %d, a resize under way: %v; %d slab pages, %d table slots", widenedAt, midResize, len(ix.recs.pages), len(ix.words))
	if widenedAt < 0 || !midResize {
		t.Fatalf("the fill widened the tables at key %d, a resize under way: %v; want a widening mid-resize", widenedAt, midResize)
	}
	for i := 0; i < n; i++ {
		if got, err := e.Get(key(i)); err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("%s: %d bytes, %v", key(i), len(got), err)
		}
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
}

// TestReadersAcrossRemodels is the -race leg of the key model: with every
// key on one stripe, a writer inserts keys of 15 digits whose values are
// i^5, so that rebuild after rebuild finds keys its model does not fit and
// widens it, re-packing every record into a fresh slab under the write
// lock; after each insert it overwrites an earlier key, which swaps that
// key's ref. The first third of the keys start with 'k' and the rest with
// 'j', so the shape the stripe learns grows in size and then changes its
// prefix, and every key of one shape changes its packed form for another.
// Readers Get and MGet keys certainly present, each packed under the model
// its reader finds under the read lock. A reader that packed under a stale
// model, or read a record in a slab a re-model let go of, misses a present
// key or returns another key's value. Every round starts from an empty
// engine, and in each the model must change at least four times, once to a
// shape of another prefix.
func TestReadersAcrossRemodels(t *testing.T) {
	const rounds, n = 12, 900
	key := func(i int) string {
		x, prefix := uint64(i), "k"
		if i >= n/3 {
			prefix = "j"
		}
		return fmt.Sprintf("%s%015d", prefix, x*x*x*x*x)
	}
	val := func(i, version int) []byte { return []byte(fmt.Sprintf("%d:%d", i, version)) }
	isVal := func(i int, v []byte) bool { return bytes.HasPrefix(v, []byte(strconv.Itoa(i)+":")) }
	for round := 0; round < rounds; round++ {
		e := New(Options{Shards: 1})
		s := e.shards[0]
		// Keys [0, alive) are certainly present: the writer raises alive
		// after an insert.
		var alive atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		widened, reshaped := 0, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer stop.Store(true)
			rng := rand.New(rand.NewSource(int64(round)))
			for i := 0; i < n; i++ {
				s.mu.RLock()
				before := s.strs.model
				s.mu.RUnlock()
				e.Set(key(i), val(i, 0))
				alive.Store(int64(i + 1))
				j := rng.Intn(i + 1)
				e.Set(key(j), val(j, i+1))
				s.mu.RLock()
				if after := s.strs.model; after != before {
					widened++
					if before.size != 0 && after.prefix != before.prefix {
						reshaped++
					}
				}
				s.mu.RUnlock()
			}
		}()
		errs := make(chan error, 2)
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					a := alive.Load()
					if a == 0 {
						continue
					}
					i := int(rng.Int63n(a))
					if v, err := e.Get(key(i)); err != nil || !isVal(i, v) {
						errs <- fmt.Errorf("Get(%s) = %q, %v with %d keys present", key(i), v, err, a)
						return
					}
					batch := []int{i, int(rng.Int63n(a)), int(rng.Int63n(a))}
					vals, _, err := e.MGetDetail([]string{key(batch[0]), key(batch[1]), key(batch[2])})
					for b, i := range batch {
						if err != nil || !isVal(i, vals[b]) {
							errs <- fmt.Errorf("MGetDetail(%s) = %q, %v with %d keys present", key(i), vals, err, a)
							return
						}
					}
				}
			}(int64(100*round + r))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := checkBooks(e); err != nil || e.Len() != n || widened < 4 || reshaped < 1 {
			t.Fatalf("round %d: %d keys, the model changed %d times (%d to another prefix) to %v; %v", round, e.Len(), widened, reshaped, s.strs.model, err)
		}
	}
}

// TestSweepFinishesAResize: a fill that stops while an index resize is under
// way, followed by nothing but expiry sweeps and reads. The sweeps move the
// old table's entries across, as many as they look at, so the index falls
// back to its size at rest within a sweep of every key, and every key reads
// back throughout, as readers running beside the sweeps check.
func TestSweepFinishesAResize(t *testing.T) {
	e := New(Options{Shards: 1})
	s := e.shards[0]
	key := func(i int) string { return fmt.Sprintf("key:%06d", i) }
	val := func(i int) []byte { return []byte(strconv.Itoa(i)) }
	n := 0
	for ; n < 20_000 || s.strs.old.words == nil; n++ {
		e.Set(key(n), val(n))
	}
	rest := s.strs.table.bytes() // the new table alone
	if got := e.Stats().IndexBytes; got <= rest {
		t.Fatalf("a resize under way charges %d B of index, the new table alone %d", got, rest)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rng.Intn(n)
				if v, err := e.Get(key(i)); err != nil || string(v) != string(val(i)) {
					errs <- fmt.Errorf("Get(%s) = %q, %v during the sweeps", key(i), v, err)
					return
				}
			}
		}(int64(r))
	}
	const limit = 64
	sweeps := 0
	for ; sweeps <= n/limit+1; sweeps++ {
		s.mu.RLock()
		resizing := s.strs.old.words != nil
		s.mu.RUnlock()
		if !resizing {
			break
		}
		e.CollectExpired(limit)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.Stats().IndexBytes; got != rest {
		t.Fatalf("after %d sweeps of %d keys the index charges %d B, at rest %d", sweeps, limit, got, rest)
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, err := e.Get(key(i)); err != nil || string(v) != string(val(i)) {
			t.Fatalf("Get(%s) = %q, %v after the sweeps", key(i), v, err)
		}
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
		arena := pmem.NewArena(pmem.OpenVolatile(1<<20, pmem.Latency{}))
		e := New(Options{Shards: shards, Arena: arena})
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
			vals, err := mget(e, []string{"b", "a"})
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

// versionValue is version v of key ki: an 8-byte header naming both and
// the body's length, body non-zero bytes drawn from them, and tail zero
// bytes, which tailCompressor drops.
func versionValue(ki, v, body, tail int) []byte {
	val := make([]byte, 8+body+tail)
	val[0] = byte(ki)
	binary.LittleEndian.PutUint32(val[1:], uint32(v))
	binary.LittleEndian.PutUint16(val[5:], uint16(body))
	val[7] = 1
	x := uint32(v*131 + ki)
	for i := 8; i < 8+body; i++ {
		x = x*1664525 + 1013904223
		val[i] = byte(x>>24) | 1
	}
	return val
}

// isVersion reports whether val is a version of key ki that was written by
// the time issued versions had been handed out.
func isVersion(ki int, val []byte, issued int64) bool {
	if len(val) < 8 || int(val[0]) != ki {
		return false
	}
	v := int(binary.LittleEndian.Uint32(val[1:]))
	body := int(binary.LittleEndian.Uint16(val[5:]))
	return v >= 1 && int64(v) <= issued && 8+body <= len(val) &&
		bytes.Equal(val, versionValue(ki, v, body, len(val)-8-body))
}

// TestOneStripeDecodeUnderReadLock: every value leaves the engine decoded
// (or copied) from its slot under the stripe read lock, so it is exactly
// one version that was written, even while writers overwrite the same keys
// with values of other sizes and delete them, so that freed slots (and
// freed arena offsets) are handed to other keys at once. Readers use Get,
// MGetDetail and the snapshot walk. It runs once with compressed values
// (tailCompressor) and once with values in a PMem arena.
func TestOneStripeDecodeUnderReadLock(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		tail bool // whether values have a zero tail, which the codec drops
	}{
		{"compressed", Options{Shards: 1, Compressor: tailCompressor{}}, true},
		{"pmem", Options{Shards: 1, Arena: pmem.NewArena(pmem.OpenVolatile(1<<20, pmem.Latency{}))}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.opts)
			const keys, rounds = 16, 5000
			key := func(i int) string { return fmt.Sprintf("hot%02d", i) }
			var issued atomic.Int64
			// Four body lengths, so that a slot or an arena offset a
			// write frees is soon another key's.
			set := func(rng *rand.Rand, ki int) {
				body, tail := 56+16*rng.Intn(4), 0
				if c.tail {
					tail = 64 * rng.Intn(2)
				}
				e.Set(key(ki), versionValue(ki, int(issued.Add(1)), body, tail))
			}
			rng := rand.New(rand.NewSource(1))
			for ki := 0; ki < keys; ki++ {
				set(rng, ki)
			}
			check := func(op string, ki int, v []byte) bool {
				if v != nil && !isVersion(ki, v, issued.Load()) {
					t.Errorf("%s %s: %.16x... (%d bytes) is no version written", op, key(ki), v, len(v))
					return false
				}
				return true
			}
			var writers, readers sync.WaitGroup
			var stop atomic.Bool
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(seed int64) {
					defer writers.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < rounds; i++ {
						if ki := rng.Intn(keys); rng.Intn(8) == 0 {
							e.Del(key(ki))
						} else {
							set(rng, ki)
						}
					}
				}(int64(10 + w))
			}
			reader := func(read func(rng *rand.Rand) bool) {
				readers.Add(1)
				go func(rng *rand.Rand) {
					defer readers.Done()
					for !stop.Load() && read(rng) {
					}
				}(rand.New(rand.NewSource(rng.Int63())))
			}
			reader(func(rng *rand.Rand) bool {
				ki := rng.Intn(keys)
				v, err := e.Get(key(ki))
				if err != nil && err != ErrNotFound {
					t.Errorf("Get %s: %v", key(ki), err)
					return false
				}
				return check("Get", ki, v)
			})
			reader(func(rng *rand.Rand) bool {
				kis := []int{rng.Intn(keys), rng.Intn(keys), rng.Intn(keys)}
				vals, _, err := e.MGetDetail([]string{key(kis[0]), key(kis[1]), key(kis[2])})
				if err != nil {
					t.Errorf("MGetDetail: %v", err)
					return false
				}
				for i, ki := range kis {
					if !check("MGetDetail", ki, vals[i]) {
						return false
					}
				}
				return true
			})
			reader(func(*rand.Rand) bool {
				err := e.ForEachEncodedChunked(512, func(chunk []SnapEntry) bool {
					for _, p := range chunk {
						var ki int
						fmt.Sscanf(p.Key, "hot%d", &ki)
						if !check("walk", ki, p.Val) {
							return false
						}
					}
					return true
				})
				if err != nil {
					t.Errorf("walk: %v", err)
				}
				return !t.Failed()
			})
			writers.Wait()
			stop.Store(true)
			readers.Wait()
			if err := checkBooks(e); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWritesReplaceALapsedKey: a write that finds its key lapsed replaces
// the lapsed record in place; it never adds a second record of the key. For
// SetNX, CompareAndSet from absent, IncrBy, RPush and LoadEncoded over a key
// whose TTL has lapsed, the engine afterwards holds one key with no TTL and
// the written value, and its books match those of an engine where the same
// write found the key absent.
func TestWritesReplaceALapsedKey(t *testing.T) {
	blob, _, err := func() ([]byte, bool, error) {
		e := New(Options{})
		e.SAdd("s", "a", "b")
		return e.Encode("s")
	}()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		write func(e *Engine) error
		want  string // what GET answers after it, or the type
	}{
		{"SetNX", func(e *Engine) error {
			if ok, err := e.SetNX("k", []byte("new")); !ok || err != nil {
				return fmt.Errorf("SetNX = %v, %v", ok, err)
			}
			return nil
		}, "new"},
		{"CompareAndSet", func(e *Engine) error { return e.CompareAndSet("k", nil, []byte("new")) }, "new"},
		{"IncrBy", func(e *Engine) error {
			if n, err := e.IncrBy("k", 7); n != 7 || err != nil {
				return fmt.Errorf("IncrBy = %d, %v", n, err)
			}
			return nil
		}, "7"},
		{"RPush", func(e *Engine) error {
			if n, err := e.RPush("k", []byte("x")); n != 1 || err != nil {
				return fmt.Errorf("RPush = %d, %v", n, err)
			}
			return nil
		}, "list"},
		{"LoadEncoded", func(e *Engine) error { return e.LoadEncoded("k", blob) }, "set"},
	} {
		t.Run(c.name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			clock := func() time.Time { return now }
			lapsed, fresh := New(Options{Shards: 1, Clock: clock}), New(Options{Shards: 1, Clock: clock})
			lapsed.Set("k", bytes.Repeat([]byte("old"), 20))
			expire(lapsed, "k", time.Second)
			now = now.Add(2 * time.Second)
			for _, e := range []*Engine{lapsed, fresh} {
				e.Set("other", []byte("v"))
				if err := c.write(e); err != nil {
					t.Fatal(err)
				}
				if err := checkBooks(e); err != nil {
					t.Fatal(err)
				}
			}
			if n, keys := lapsed.Len(), lapsed.Stats().Keys; n != 2 || keys != 2 {
				t.Fatalf("Len %d, Stats().Keys %d after the write over a lapsed key, want 2", n, keys)
			}
			if _, ok := lapsed.TTL("k"); ok || lapsed.Expired("k") {
				t.Fatal("the written key kept the lapsed record's deadline")
			}
			if got, want := lapsed.MemUsed(), fresh.MemUsed(); got != want {
				t.Errorf("MemUsed %d, %d where the key was absent", got, want)
			}
			gs, fs := lapsed.Stats(), fresh.Stats()
			if gs.PayloadBytes != fs.PayloadBytes || gs.PackedBytes != fs.PackedBytes || gs.IndexBytes != fs.IndexBytes {
				t.Errorf("Stats %+v, %+v where the key was absent", gs, fs)
			}
			v, err := lapsed.Get("k")
			if got := string(v); err == ErrWrongType {
				got = lapsed.Type("k").String()
				if got != c.want {
					t.Errorf("k is a %s, want %s", got, c.want)
				}
			} else if got != c.want {
				t.Errorf("Get(k) = %q, %v, want %q", got, err, c.want)
			}
		})
	}
}
