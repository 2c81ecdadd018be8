package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// collidingKeys returns n distinct keys with one FNV-1a hash, which is one
// slot hash, one home at every table length and one tag: "c<i>" followed by
// the four bytes that steer the hash to the target, found by meeting in the
// middle (two bytes forward from the prefix, two backward from the target).
func collidingKeys(n int) []string {
	const prime = 16777619
	inverse := uint32(prime) // Newton: doubles the correct low bits each round
	for i := 0; i < 5; i++ {
		inverse *= 2 - prime*inverse
	}
	target := fnv1a("the hash they all share")
	back := make(map[uint32][2]byte, 1<<16)
	seen := make([]uint64, 1<<24/64) // low 24 bits of the states in back
	for b3 := 0; b3 < 256; b3++ {
		for b4 := 0; b4 < 256; b4++ {
			s := (target*inverse^uint32(b4))*inverse ^ uint32(b3)
			back[s] = [2]byte{byte(b3), byte(b4)}
			seen[s&(1<<24-1)/64] |= 1 << (s % 64)
		}
	}
	var keys []string
	for i := 0; len(keys) < n; i++ {
		prefix := fmt.Sprintf("c%d", i)
		s0 := fnv1a(prefix)
	search:
		for b1 := 0; b1 < 256; b1++ {
			for b2 := 0; b2 < 256; b2++ {
				s := ((s0^uint32(b1))*prime ^ uint32(b2)) * prime
				if seen[s&(1<<24-1)/64]&(1<<(s%64)) == 0 {
					continue
				}
				if tail, ok := back[s]; ok {
					keys = append(keys, prefix+string([]byte{byte(b1), byte(b2), tail[0], tail[1]}))
					break search
				}
			}
		}
	}
	return keys
}

var (
	collidersOnce sync.Once
	colliders     []string
)

// sharedHashKeys is collidingKeys(200), computed once.
func sharedHashKeys() []string {
	collidersOnce.Do(func() { colliders = collidingKeys(200) })
	return colliders
}

func TestCollidingKeysCollide(t *testing.T) {
	keys := sharedHashKeys()
	seen := map[string]bool{}
	for _, k := range keys {
		if fnv1a(k) != fnv1a(keys[0]) || seen[k] {
			t.Fatalf("%q: hash %#x, want %#x, distinct %v", k, fnv1a(k), fnv1a(keys[0]), !seen[k])
		}
		seen[k] = true
	}
}

// indexModel drives a bare index (its own slab, no engine around it) and a
// map side by side. A record's value is one byte, so that a replace shows.
type indexModel struct {
	t     *testing.T
	ix    index
	keys  map[string]byte // value byte
	marks map[string]bool // reference bit, as the operations so far leave it
}

func (m *indexModel) put(key string, v byte) {
	ix := &m.ix
	h := slotHash(fnv1a(key))
	at, cur := ix.find(h, key)
	ref, rec := ix.recs.alloc(recordLen(key, 1))
	writeRecord(rec, key, staged{val: []byte{v}})
	if at >= 0 {
		ix.replace(at, ref, cur.parse().size)
	} else {
		ix.insert(h, ref)
		m.marks[key] = true
	}
	m.keys[key] = v
}

func (m *indexModel) del(key string) {
	at, rec := m.ix.find(slotHash(fnv1a(key)), key)
	if _, held := m.keys[key]; held != (at >= 0) {
		m.t.Fatalf("find(%q) = %d, model holds it: %v", key, at, held)
	}
	if at >= 0 {
		m.ix.remove(at, rec.parse().size)
		delete(m.keys, key)
		delete(m.marks, key)
	}
}

// evict is Engine.Evict's loop over the index alone: a victim if any key is
// unpinned, and never a pinned one.
func (m *indexModel) evict() {
	ix := &m.ix
	lap := ix.n
	for look := lap; look > 0; {
		at, f, end := ix.clock(&look, lap, modelPinned)
		if at >= 0 {
			key := string(f.key)
			if _, held := m.keys[key]; !held || modelPinned(f.key) {
				m.t.Fatalf("clock took %q: held %v", key, held)
			}
			ix.remove(at, f.size)
			delete(m.keys, key)
			delete(m.marks, key)
			return
		}
		if !end {
			break
		}
	}
	for key := range m.keys {
		if !modelPinned([]byte(key)) {
			m.t.Fatalf("clock found nothing to take among %d keys, %q is not pinned", len(m.keys), key)
		}
	}
}

// sweep walks the whole index through scan, limit records at a time, and
// wants every key exactly once.
func (m *indexModel) sweep(limit int) {
	seen := map[string]bool{}
	for pos, end := uint32(0), false; !end; {
		left := limit
		pos, end = m.ix.scan(pos, &left, func(rec record) {
			key := string(rec.key())
			if _, held := m.keys[key]; !held || seen[key] {
				m.t.Fatalf("scan met %q: held %v, seen before %v", key, held, seen[key])
			}
			seen[key] = true
		})
	}
	if len(seen) != len(m.keys) {
		m.t.Fatalf("scan met %d keys of %d", len(seen), len(m.keys))
	}
}

// check compares the index with the model key by key and mark by mark.
// cleared says the hand has run since the last check: marks may have gone,
// none may have appeared.
func (m *indexModel) check(cleared bool) {
	ix := &m.ix
	if ix.n != len(m.keys) {
		m.t.Fatalf("index counts %d entries, model %d", ix.n, len(m.keys))
	}
	for key, v := range m.keys {
		at, rec := ix.find(slotHash(fnv1a(key)), key)
		if at < 0 {
			m.t.Fatalf("%q is lost", key)
		}
		if f := rec.parse(); string(f.key) != key || len(f.val) != 1 || f.val[0] != v || &ix.record(at)[0] != &rec[0] {
			m.t.Fatalf("%q resolves to the record of %q, value %v, want %v", key, f.key, f.val, v)
		}
		marked := *ix.ref(at)&refBit != 0
		if marked != m.marks[key] && !(cleared && !marked) {
			m.t.Fatalf("%q: reference bit %v, want %v", key, marked, m.marks[key])
		}
		m.marks[key] = marked
	}
	n := 0
	ix.each(func(record) bool { n++; return true })
	if n != len(m.keys) {
		m.t.Fatalf("each visits %d records, model holds %d", n, len(m.keys))
	}
	if ix.held() != ix.charge+ix.recs.held() {
		m.t.Fatalf("held() = %d, table %d + records %d", ix.held(), ix.charge, ix.recs.held())
	}
	if err := checkIndex(ix); err != nil {
		m.t.Fatal(err)
	}
	if err := checkSlab(&ix.recs); err != nil {
		m.t.Fatal(err)
	}
}

// FuzzIndex drives the table with a byte-coded stream of inserts, replaces,
// removes, finds, touches, evictions and scans, singly and in runs of up to
// 256 keys so that a short input reaches tables of a few thousand slots and
// back to none, over three kinds of key: 4096 ordinary ones, 200 that share
// one hash (64 fill the reach of their home, the rest live in the spill),
// and ones past maxShortKey bytes. After every operation the index is
// compared with a map: every key found with its own value and its own
// reference bit, no other key found, counts, charge and shape right.
func FuzzIndex(f *testing.F) {
	grow := []byte{0, 0, 0, 255, 0, 1, 0, 255, 0, 2, 0, 255, 0, 3, 0, 255} // 1024 ordinary keys
	f.Add(grow)
	f.Add(append(append([]byte{}, grow...), 1, 0, 0, 255, 1, 1, 0, 255, 1, 2, 0, 255, 5, 0, 0, 0, 1, 3, 0, 250))      // and back down
	f.Add([]byte{0, 16, 0, 199, 2, 16, 70, 0, 3, 16, 90, 0, 4, 0, 0, 0, 1, 16, 0, 150, 0, 16, 0, 199, 1, 16, 0, 199}) // the shared hash
	f.Add([]byte{0, 17, 0, 40, 0, 0, 0, 40, 4, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 7, 1, 17, 0, 40})                        // long keys
	shared := sharedHashKeys()
	name := func(i int) string {
		switch {
		case i < 4096:
			return fmt.Sprintf("k%d", i)
		case i < 4096+len(shared):
			return shared[i-4096]
		default:
			return fmt.Sprintf("a-key-too-long-for-the-header-byte:k%d", i)
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &indexModel{t: t, keys: map[string]byte{}, marks: map[string]bool{}}
		ops = ops[:min(len(ops), 4*256)] // every operation is followed by a check of every key
		for ; len(ops) >= 4; ops = ops[4:] {
			first, count := int(binary.BigEndian.Uint16(ops[1:]))%4608, int(ops[3])
			cleared := false
			switch ops[0] % 8 {
			case 0:
				for i := 0; i <= count; i++ {
					m.put(name(first+i), ops[3])
				}
			case 1:
				for i := 0; i <= count; i++ {
					m.del(name(first + i))
				}
			case 2:
				m.put(name(first), ops[3])
			case 3:
				key := name(first)
				if at, _ := m.ix.find(slotHash(fnv1a(key)), key); at >= 0 {
					m.ix.touch(at)
					m.marks[key] = true
				} else if _, held := m.keys[key]; held {
					t.Fatalf("%q is lost", key)
				}
			case 4:
				for i := 0; i <= count%8; i++ {
					m.evict()
				}
				cleared = true
			case 5:
				m.sweep(1 + count)
			case 6:
				m.del(name(first))
			case 7:
				key := name(first)
				if at, _ := m.ix.find(slotHash(fnv1a(key)), key); at >= 0 {
					if _, held := m.keys[key]; !held {
						t.Fatalf("find(%q) = %d, and the model does not hold it", key, at)
					}
				}
			}
			m.check(cleared)
		}
	})
}

// TestSpillHoldsWhatNoLengthSeparates: more keys of one hash than an entry's
// reach has slots. The table grows while that can help and no further, the
// rest live in the spill, charged, and every way into the stripe (Get, the
// snapshot walk, the expiry sweep, Evict) still reaches every key.
func TestSpillHoldsWhatNoLengthSeparates(t *testing.T) {
	shared := sharedHashKeys()
	e := New(Options{Shards: 1})
	for i := 0; i < 1000; i++ {
		e.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	ix := &e.shards[0].strs
	size := len(ix.meta)
	for _, k := range shared {
		e.Set(k, []byte(k))
	}
	// The reach of their home holds 64 less what ordinary keys take of it.
	if got, want := len(ix.spill), len(shared)-(reach+1); got < want || got > want+4 {
		t.Fatalf("%d keys of one hash: %d spilled, want %d or a few more", len(shared), got, want)
	}
	if len(ix.meta) > 2*size {
		t.Fatalf("table grew from %d to %d slots for keys no length separates", size, len(ix.meta))
	}
	if st := e.Stats(); st.IndexBytes != ix.charge || ix.charge <= allocBytes(2*len(ix.meta))+allocBytes(4*len(ix.meta)) {
		t.Fatalf("IndexBytes %d, table and spill charged %d", st.IndexBytes, ix.charge)
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
	for _, k := range shared {
		if v, err := e.Get(k); err != nil || string(v) != k {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
		e.ExpireAt(k, 1) // long lapsed
	}
	walked := 0
	e.ForEachEncodedChunked(0, func(chunk []SnapEntry) bool { walked += len(chunk); return true })
	if walked != 1000 { // the walk skips lapsed keys: these were all listed and then found lapsed
		t.Fatalf("walk met %d live keys, want 1000", walked)
	}
	if got := sweepExpired(e, 1<<30); got != len(shared) {
		t.Fatalf("sweep took %d lapsed keys, want %d", got, len(shared))
	}
	if ix.spill != nil || e.Len() != 1000 {
		t.Fatalf("after the sweep: %d spilled, %d keys", len(ix.spill), e.Len())
	}
	for _, k := range shared {
		e.Set(k, []byte(k))
	}
	for e.Len() > 0 {
		if !e.Evict(0, nil) {
			t.Fatalf("nothing to evict with %d keys left, %d of them spilled", e.Len(), len(ix.spill))
		}
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}

	// A table of a few slots has a tail of a few slots, and keys that share
	// nothing can run into its end. That is no reason to spill: such a table
	// grows, on the way up and when a shrink turns out too tight, and the
	// spill stays what keys of one hash get. checkIndex holds it to that.
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		e := New(Options{Shards: 1})
		ix := &e.shards[0].strs
		keys := make([]string, 150)
		for i := range keys {
			keys[i] = fmt.Sprintf("%x", rng.Uint64())
			e.Set(keys[i], nil)
			if err := checkIndex(ix); err != nil {
				t.Fatalf("round %d, %d keys in: %v", round, i+1, err)
			}
		}
		for i, k := range keys {
			e.Del(k)
			if err := checkIndex(ix); err != nil {
				t.Fatalf("round %d, %d keys out: %v", round, i+1, err)
			}
		}
	}
	// Keys of one hash alone in a stripe: the table grows until its tail is
	// a whole reach, which they fill, and the rest spill (and count towards
	// the table's load as every entry does).
	e = New(Options{Shards: 1})
	for _, k := range shared {
		e.Set(k, nil)
	}
	ix = &e.shards[0].strs
	if got, want := len(ix.spill), len(shared)-(reach+1); got != want || len(ix.meta) > 2*len(shared) {
		t.Fatalf("%d keys of one hash alone: %d spilled beside %d slots, want %d beside %d at most", len(shared), got, len(ix.meta), want, 2*len(shared))
	}
	for _, k := range shared {
		if err := checkBooks(e); err != nil {
			t.Fatal(err)
		}
		e.Del(k)
	}
}

// TestResizeCarriesTheHand: a table that grows or shrinks under the hand
// neither hides a stretch of keys from the rest of its lap nor shows it one
// twice. Every key is unmarked and pinned, so the hand asks pinned about
// each key it passes and takes none; a third of the way round the population
// grows by half (new keys enter marked and are not asked about), two thirds
// round the new keys and a third of the old go, and over the whole lap the
// hand must have asked once about every key that was there throughout: it
// stays on its entry when a run shifts under it and when the table is
// rebuilt.
func TestResizeCarriesTheHand(t *testing.T) {
	const n, slack = 3000, 0
	m := &indexModel{t: t, keys: map[string]byte{}, marks: map[string]bool{}}
	ix := &m.ix
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 0; i < n; i++ {
		m.put(key(i), 0)
	}
	asked := map[string]int{}
	pinAll := func(k []byte) bool { asked[string(k)]++; return true }
	advance := func(entries int) (end bool) {
		for ; !end && entries > 0; entries-- {
			look := 1 // one unmarked entry, and the marked ones before it
			_, _, end = ix.clock(&look, 1, pinAll)
		}
		return end
	}
	for lap := 0; lap < 2; lap++ { // the marks go: from the hand on, and then of the keys that came in behind it
		for !advance(n) {
		}
	}
	clear(asked)
	sizes := map[int]bool{len(ix.meta): true}
	advance(n / 3)
	for i := n; i < n+n/2; i++ {
		m.put(key(i), 0)
		sizes[len(ix.meta)] = true
	}
	advance(n / 3)
	for i := n - 1; i >= 2*n/3; i-- {
		m.del(key(i))
	}
	for i := n; i < n+n/2; i++ {
		m.del(key(i))
		sizes[len(ix.meta)] = true
	}
	for !advance(n) {
	}
	if len(sizes) < 4 {
		t.Fatalf("the table only took lengths %v", sizes)
	}
	missed, twice := 0, 0
	for i := 0; i < 2*n/3; i++ {
		switch asked[key(i)] {
		case 0:
			missed++
		case 1:
		default:
			twice++
		}
	}
	t.Logf("over %d lengths: %d keys missed, %d asked about twice", len(sizes), missed, twice)
	if missed > slack || twice > slack {
		t.Fatalf("a lap across %d lengths missed %d keys and asked about %d twice; want at most %d of each", len(sizes), missed, twice, slack)
	}
}
