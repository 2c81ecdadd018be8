package engine

import (
	"bytes"
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
// map side by side, keys packed and hashed as the engine packs and hashes
// them. A record's value is one byte, so that a replace shows.
type indexModel struct {
	t     *testing.T
	ix    index
	keys  map[string]byte // value byte
	marks map[string]bool // reference bit, as the operations so far leave it

	// A lap of scan steps (step): where the next resumes, the keys held
	// since the lap began (nil between laps), and what the lap has met.
	cursor uint32
	steady map[string]bool
	met    map[string]bool
}

// put stores v as key's value: in the plain form (a raw value with its
// length, as the index has no codec), whose record is bare if the key is of
// the model's shape, or headed, with a deadline, which no record is bare
// with.
func (m *indexModel) put(key string, v byte, headed bool) {
	ix := &m.ix
	pk := ix.pack(key)
	h := slotHash(fnv1a(key))
	at, cur := ix.find(h, pk)
	st := staged{val: []byte{v}}
	if headed {
		st.flags, st.at = flagTTL, int64(v)+1
	}
	ref := ix.store(pk, st)
	if at >= 0 {
		ix.replace(at, ref, ix.parse(cur).size)
	} else {
		ix.packed += int64(len(key) - len(pk))
		ix.insert(h, ref)
		m.marks[key] = true
	}
	m.keys[key] = v
}

func (m *indexModel) del(key string) {
	at, rec := m.ix.findKey(key)
	if _, held := m.keys[key]; held != (at >= 0) {
		m.t.Fatalf("find(%q) = %d, model holds it: %v", key, at, held)
	}
	if at >= 0 {
		f := m.ix.parse(rec)
		m.ix.packed -= int64(len(key) - len(f.key))
		m.ix.remove(at, f.size)
		delete(m.keys, key)
		delete(m.marks, key)
		delete(m.steady, key)
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
			key := ix.model.unpackKey(f.key)
			if _, held := m.keys[key]; !held || modelPinned([]byte(key)) {
				m.t.Fatalf("clock took %q: held %v", key, held)
			}
			ix.packed -= int64(len(key) - len(f.key))
			ix.remove(at, f.size)
			delete(m.keys, key)
			delete(m.marks, key)
			delete(m.steady, key)
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
		pos, end = m.ix.scan(pos, &left, func(rec record) int {
			key := m.ix.model.unpackKey(rec.key())
			if _, held := m.keys[key]; !held || seen[key] {
				m.t.Fatalf("scan met %q: held %v, seen before %v", key, held, seen[key])
			}
			seen[key] = true
			return 1
		})
	}
	if len(seen) != len(m.keys) {
		m.t.Fatalf("scan met %d keys of %d", len(seen), len(m.keys))
	}
}

// step takes one scan of up to limit records from where the last stopped.
// A lap starts at hash 0 with the keys held then. It may meet a key only
// while the key is held and only once, and when it ends it must have met
// every key held from its start to its end, whatever the writes between
// its steps moved.
func (m *indexModel) step(limit int) {
	if m.steady == nil {
		m.steady, m.met = map[string]bool{}, map[string]bool{}
		for key := range m.keys {
			m.steady[key] = true
		}
	}
	next, end := m.ix.scan(m.cursor, &limit, func(rec record) int {
		key := m.ix.model.unpackKey(rec.key())
		if _, held := m.keys[key]; !held || m.met[key] {
			m.t.Fatalf("a scan step met %q: held %v, met this lap before %v", key, held, m.met[key])
		}
		m.met[key] = true
		return 1
	})
	if m.cursor = next; !end {
		return
	}
	for key := range m.steady {
		if !m.met[key] {
			m.t.Fatalf("a lap of scan steps missed %q, held throughout", key)
		}
	}
	m.steady, m.met = nil, nil
}

// check compares the index with the model key by key and mark by mark, and
// every key's record with its packed form under the index's model, and
// what packing took off with the books. cleared says the hand has run since
// the last check: marks may have gone, none may have appeared.
func (m *indexModel) check(cleared bool) {
	ix := &m.ix
	if ix.n != len(m.keys) {
		m.t.Fatalf("index counts %d entries, model %d", ix.n, len(m.keys))
	}
	packed := int64(0)
	for key, v := range m.keys {
		at, rec := ix.findKey(key)
		if at < 0 {
			m.t.Fatalf("%q is lost", key)
		}
		f := ix.parse(rec)
		if string(f.key) != string(ix.pack(key)) || len(f.val) != 1 || f.val[0] != v || !sameRecord(ix.record(at), rec) {
			m.t.Fatalf("%q resolves to the record of %q, value %v, want %v", key, ix.model.unpackKey(f.key), f.val, v)
		}
		if rec.bare != ix.bare(f.key, f.flags) || f.deadline != 0 && f.deadline != int64(v)+1 {
			m.t.Fatalf("%q: record of flags %#x and deadline %d is bare: %v, under %v", key, f.flags, f.deadline, rec.bare, ix.model)
		}
		packed += int64(len(key) - len(f.key))
		marked := *ix.mark(at)&refBit != 0
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
	if packed != ix.packed {
		m.t.Fatalf("packing took %d bytes off the keys, the index says %d", packed, ix.packed)
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
// removes, finds, touches, evictions, scans and re-models, singly and in
// runs of up to 256 keys so that a short input reaches tables of a few
// thousand slots and back to none, over three kinds of key: 4096 ordinary
// ones, 200 that share one hash (64 fill the reach of their home, the rest
// live in the spill), and ones past maxShortKey bytes, whose 19-digit
// pieces take values of every width. A re-model (an op byte of 248 or
// more) sets the model back to zero (odd count), so that the keys take
// their full forms until a rebuild widens it, learns it now from every key
// (count 0 mod 4), or gives it the shape of the op's first key (2 mod 4),
// in a size from the count that may be too small for some keys of it.
// Values are plain, so a key of the model's shape has a bare record, except
// where op byte 240 puts a run of keys with a deadline, headed; op byte 241
// widens the tables' highs to 2 bytes, in place, whatever the slab's size,
// and op byte 242 takes one step of a lap of scans that resume where the
// last stopped, as the snapshot walk's holds do, with writes in between (the
// other op bytes under 248 are their op mod 8). After every operation
// the index is compared with a map: every key found with its own value and
// its own reference bit, stored in its packed form under the model and bare
// exactly when the rule says, no other key found, counts, charge, what
// packing took off and shape right, both tables in hash order while a
// resize is under way.
func FuzzIndex(f *testing.F) {
	grow := []byte{0, 0, 0, 255, 0, 1, 0, 255, 0, 2, 0, 255, 0, 3, 0, 255} // 1024 ordinary keys
	f.Add(grow)
	f.Add(append(append([]byte{}, grow...), 1, 0, 0, 255, 1, 1, 0, 255, 1, 2, 0, 255, 5, 0, 0, 0, 1, 3, 0, 250))      // and back down
	f.Add([]byte{0, 16, 0, 199, 2, 16, 70, 0, 3, 16, 90, 0, 4, 0, 0, 0, 1, 16, 0, 150, 0, 16, 0, 199, 1, 16, 0, 199}) // the shared hash
	f.Add([]byte{0, 17, 0, 40, 0, 0, 0, 40, 4, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 7, 1, 17, 0, 40})                        // long keys
	// 1024 keys leave a table growing from 1152 slots to 1344, front 282 of
	// the old one, and 1024 less 269 one shrinking from 1344 to 1152, front
	// 17: scans, evictions, touches and removes then cross the bound.
	across := []byte{5, 0, 0, 9, 4, 0, 0, 0, 6, 1, 44, 0, 3, 1, 50, 0, 5, 0, 0, 99, 4, 0, 0, 2, 2, 1, 144, 7, 1, 0, 0, 49, 5, 0, 0, 255}
	f.Add(append(append([]byte{}, grow...), across...))
	f.Add(append(append(append([]byte{}, grow...), 1, 0, 0, 255, 1, 1, 0, 12), across...))
	f.Add([]byte{0, 17, 0, 255, 248, 0, 0, 1, 0, 17, 0x40, 40, 248, 0, 0, 0, 1, 17, 0, 100, 248, 0, 0, 1, 1, 17, 0x60, 60}) // re-models
	f.Add([]byte{0, 0, 0, 255, 248, 0, 100, 6, 0, 0, 0x40, 50, 248, 0, 0, 0, 1, 0, 0, 20, 248, 17, 0, 2, 1, 0, 0x20, 80})   // shapes
	// Bare and headed records of one shape, a widening mid-resize, and a
	// re-model that re-decides every record's form.
	f.Add(append(append([]byte{}, grow...), 240, 0, 0, 100, 0, 0, 0x40, 9, 248, 0, 0, 2, 241, 0, 0, 0, 240, 0, 0x30, 40, 0, 2, 0, 100, 1, 0, 0x10, 200, 248, 0, 0, 0))
	// A lap of scan steps of 256 meets the keys of the shared hash in its
	// third step; then ten of those in the table go, and 768 inserts begin
	// and finish a resize, whose end moves nine spilled ones into the table,
	// behind the lap, which steps on to its end.
	steps := bytes.Repeat([]byte{242, 0, 0, 255}, 4)
	lap := append(append(append([]byte{}, grow...), 0, 16, 0, 199), steps...)
	lap = append(lap, 1, 16, 0, 9, 0, 4, 0, 255, 0, 5, 0, 255, 0, 6, 0, 255)
	f.Add(append(lap, steps...))
	shared := sharedHashKeys()
	name := func(i int) string {
		switch {
		case i < 4096:
			return fmt.Sprintf("k%d", i)
		case i < 4096+len(shared):
			return shared[i-4096]
		default:
			return fmt.Sprintf("a-key-too-long-for-the-header-byte:%019d", uint64(i)<<(i%50))
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &indexModel{t: t, keys: map[string]byte{}, marks: map[string]bool{}}
		ops = ops[:min(len(ops), 4*256)] // every operation is followed by a check of every key
		for ; len(ops) >= 4; ops = ops[4:] {
			first, count := int(binary.BigEndian.Uint16(ops[1:]))%4608, int(ops[3])
			cleared := false
			op := ops[0] % 8
			switch ops[0] {
			case 240, 241, 242:
				op = ops[0] - 240 + 9
			case 248, 249, 250, 251, 252, 253, 254, 255:
				op = 8 // the re-model has codes of its own, so the other codes keep their meaning
			}
			switch op {
			case 0, 9:
				for i := 0; i <= count; i++ {
					m.put(name(first+i), ops[3], op == 9)
				}
			case 1:
				for i := 0; i <= count; i++ {
					m.del(name(first + i))
				}
			case 2:
				m.put(name(first), ops[3], false)
			case 3:
				key := name(first)
				if at, _ := m.ix.findKey(key); at >= 0 {
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
				if at, _ := m.ix.findKey(key); at >= 0 {
					if _, held := m.keys[key]; !held {
						t.Fatalf("find(%q) = %d, and the model does not hold it", key, at)
					}
				}
			case 8:
				switch count % 4 {
				case 0:
					m.ix.remodel()
				case 2:
					m.ix.setModel(shapedModel(m.ix.model, name(first), count/4))
				default:
					m.ix.setModel(keyModel{})
				}
			case 10:
				if !m.ix.wide {
					m.ix.widen()
				}
			case 11:
				m.step(1 + count)
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
	size := len(ix.words)
	for _, k := range shared {
		e.Set(k, []byte(k))
	}
	// The reach of their home holds 64 less what ordinary keys take of it.
	if got, want := len(ix.spill), len(shared)-(reach+1); got < want || got > want+4 {
		t.Fatalf("%d keys of one hash: %d spilled, want %d or a few more", len(shared), got, want)
	}
	if len(ix.words) > 2*size {
		t.Fatalf("table grew from %d to %d slots for keys no length separates", size, len(ix.words))
	}
	if st := e.Stats(); st.IndexBytes != ix.charge || ix.charge <= allocBytes(2*len(ix.words))+allocBytes(4*len(ix.words)) {
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
	walkHolds(e, func(chunk []walkedKey) bool { walked += len(chunk); return true })
	if walked != 1000 { // the walk skips lapsed keys
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
	// the table's load as every entry does), once the writes that follow
	// have finished the last resize.
	e = New(Options{Shards: 1})
	for _, k := range shared {
		e.Set(k, nil)
	}
	ix = &e.shards[0].strs
	for ix.old.words != nil {
		e.Set(shared[0], nil)
	}
	if got, want := len(ix.spill), len(shared)-(reach+1); got != want || len(ix.words) > 2*len(shared) {
		t.Fatalf("%d keys of one hash alone: %d spilled beside %d slots, want %d beside %d at most", len(shared), got, len(ix.words), want, 2*len(shared))
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
		m.put(key(i), 0, false)
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
	sizes := map[int]bool{len(ix.words): true}
	advance(n / 3)
	for i := n; i < n+n/2; i++ {
		m.put(key(i), 0, false)
		sizes[len(ix.words)] = true
	}
	advance(n / 3)
	for i := n - 1; i >= 2*n/3; i-- {
		m.del(key(i))
	}
	for i := n; i < n+n/2; i++ {
		m.del(key(i))
		sizes[len(ix.words)] = true
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

// TestResizeKeepsTheHandsPlace: a resize, grow or shrink, leaves every
// entry the clock hand had not passed at or after it, and every entry it had
// passed before it. Entries that share a home used to sit in the order they
// came in, so a resize that parted them over two homes could put one on the
// wrong side of the hand it carried; in full hash order a resize keeps
// every entry's place relative to every other, and to the hand. Seeded:
// 25 one-stripe tables of 150-349 random keys, rebuilt in one hold, and 4
// of 1000-1399, whose resizes are spread, each brought to one write short
// of a resize, the hand put on every 7th (29th) slot in turn, then the
// write that resizes and the overwrites that finish it.
func TestResizeKeepsTheHandsPlace(t *testing.T) {
	// behind says which keys are behind the hand. A hand past the last entry
	// has ended its lap: it is the next one's start, and none is behind it.
	behind := func(ix *index, keys []string) map[string]bool {
		out, ended := map[string]bool{}, true
		for _, k := range keys {
			if at, _ := ix.findKey(k); at >= 0 {
				out[k] = at < ix.hand
				ended = ended && out[k]
			}
		}
		if ended {
			clear(out)
		}
		return out
	}
	rng := rand.New(rand.NewSource(58))
	resizes, wrong := 0, 0
	for round := 0; round < 29; round++ {
		n, seed, every := 150+rng.Intn(200), rng.Int63(), 7
		if round >= 25 {
			n, every = 1000+rng.Intn(400), 29
		}
		for _, grow := range []bool{true, false} {
			// ready is the table one write short of the resize, and the
			// keys in it in the order they went in.
			ready := func() (*indexModel, []string) {
				r := rand.New(rand.NewSource(seed))
				m := &indexModel{t: t, keys: map[string]byte{}, marks: map[string]bool{}}
				var keys []string
				add := func() {
					keys = append(keys, fmt.Sprintf("%x", r.Uint64()))
					m.put(keys[len(keys)-1], 0, false)
				}
				for len(keys) < n {
					add()
				}
				ix := &m.ix
				if grow {
					for (ix.n+1)*8 <= len(ix.words)*7 {
						add()
					}
				} else {
					for len(keys) > 1 && (ix.n-1)*16 >= len(ix.words)*9 {
						m.del(keys[len(keys)-1])
						keys = keys[:len(keys)-1]
					}
				}
				for ix.positions() != len(ix.words)+len(ix.spill) { // a resize under way
					m.put(keys[0], 0, false)
				}
				return m, keys
			}
			m, _ := ready()
			for hand := 0; hand < len(m.ix.words); hand += every {
				m, keys := ready()
				ix := &m.ix
				ix.hand = hand
				before, size := behind(ix, keys), len(ix.words)
				if grow {
					m.put("a key that is new", 0, false)
				} else {
					m.del(keys[0])
					delete(before, keys[0])
				}
				for ix.positions() != len(ix.words)+len(ix.spill) {
					m.put(keys[1], 0, false)
				}
				if len(ix.words) == size {
					t.Fatalf("round %d (grow %v): the table stayed at %d slots", round, grow, size)
				}
				resizes++
				after := behind(ix, keys)
				for k, was := range before {
					if after[k] != was {
						if wrong++; wrong <= 5 {
							at, _ := ix.findKey(k)
							t.Errorf("round %d (grow %v), %d to %d slots, hand on slot %d: %q now in slot %d, the hand on %d; behind it before: %v",
								round, grow, size, len(ix.words), hand, k, at, ix.hand, was)
						}
						break
					}
				}
			}
		}
	}
	t.Logf("%d of %d resizes left an entry on the wrong side of the hand", wrong, resizes)
	if wrong > 0 {
		t.Fatalf("%d of %d resizes left an entry on the wrong side of the hand", wrong, resizes)
	}
}

// TestResizeIsSpreadOverWrites counts what a write pays for resizes: once
// the table is spreadFrom slots long no Set or Del re-hashes more than
// moves records (a shorter table, at most 896 entries, is rebuilt in one
// hold), while a one-stripe engine grows from nothing to 200k keys, with
// overwrites between, and shrinks back to nothing, through some ninety
// table lengths. A resize that rebuilt its table under one lock hold
// re-hashed every entry the stripe held.
func TestResizeIsSpreadOverWrites(t *testing.T) {
	e := New(Options{Shards: 1})
	ix := &e.shards[0].strs
	rng := rand.New(rand.NewSource(13))
	keys := make([]string, 200_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%011d", rng.Int63n(1e11))
	}
	worst, small, lengths, resizing := 0, 0, map[int]bool{}, 0
	write := func(op func()) {
		before, short := ix.rehashed, len(ix.words) < spreadFrom
		op()
		if short || len(ix.words) < spreadFrom {
			small = max(small, ix.rehashed-before)
		} else {
			worst = max(worst, ix.rehashed-before)
		}
		lengths[len(ix.words)] = true
		if ix.old.words != nil {
			resizing++
		}
	}
	for i, k := range keys {
		write(func() { e.Set(k, []byte("v")) })
		if i%3 == 0 {
			write(func() { e.Set(keys[i/2], []byte("w")) }) // an overwrite
		}
	}
	grew := ix.rehashed
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		write(func() { e.Del(k) })
	}
	t.Logf("%d table lengths, %d writes with a resize under way, %.2f re-hashes per key inserted, %.2f per key deleted, at most %d in one write (%d below %d slots)",
		len(lengths), resizing, float64(grew)/float64(len(keys)), float64(ix.rehashed-grew)/float64(len(keys)), worst, small, spreadFrom)
	if worst > moves || small > spreadFrom*7/8 || len(lengths) < 30 || e.Len() != 0 {
		t.Fatalf("a write re-hashed %d records (want %d at most; %d below %d slots) over %d table lengths; %d keys left",
			worst, moves, small, spreadFrom, len(lengths), e.Len())
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
}

// shapedModel is m with the shape of key, in a size of 1 to the most its
// digits may need picked by size.
func shapedModel(m keyModel, key string, size int) keyModel {
	if m.shape = shapeOf([]byte(key), &m.shape); m.size != 0 {
		m.size = uint8(1 + size%int(m.size))
	}
	return m
}

// pack is key packed under the index's model, as the engine stores it.
func (ix *index) pack(key string) []byte { return appendPacked(&ix.model, nil, key) }

// sameRecord reports whether a and b are views of one record.
func sameRecord(a, b record) bool { return a.bare == b.bare && &a.body[0] == &b.body[0] }

// findKey is find for key as written.
func (ix *index) findKey(key string) (int, record) {
	return ix.find(slotHash(fnv1a(key)), ix.pack(key))
}

// TestRefsRoundTripThroughTables: an entry gives back the ref it was given,
// with its probe word and reference bit untouched, for refs of every shape
// its high width holds: page slots and own allocations, bare or not, up to
// 22 bits of address in a 1-byte high and 30 in a 2-byte one, and a widened
// table reads every entry as it was. A slab hands out own refs past 16 bits
// of index.
func TestRefsRoundTripThroughTables(t *testing.T) {
	var refs []uint32
	for _, addr := range []uint32{1, 0xFFFF, 1 << 16, 1<<22 - 1, 1 << 22, addrMask} {
		for _, tag := range []uint32{0, ownTag, bareRef, ownTag | bareRef} {
			refs = append(refs, tag|addr)
		}
	}
	narrow := newTable(len(refs), 1)
	for _, hw := range []int{1, 2} {
		tb := newTable(len(refs), hw)
		for i, ref := range refs {
			if hw == 1 && ref&addrMask >= narrowRef {
				continue
			}
			_, w := tb.word(uint32(i) * 0x9E3779B1)
			mark := uint32(i%2) * refBit
			tb.set(i, w, spilled{ref: ref, word: mark})
			if hw == 1 {
				narrow.set(i, w, spilled{ref: ref, word: mark})
			}
			if e := tb.entry(i); e != (spilled{ref: ref, word: mark}) || tb.words[i]&probeMask != w {
				t.Fatalf("%d-byte high: ref %#x, mark %#x came back as %#x, %#x under probe word %#x (want %#x)", hw, ref, mark, e.ref, e.word, tb.words[i]&probeMask, w)
			}
			tb.setRef(i, ref^1)
			if e := tb.entry(i); e.ref != ref^1 || e.word != mark || tb.words[i]&probeMask != w {
				t.Fatalf("%d-byte high: setRef(%#x) read back %#x, mark %#x", hw, ref^1, e.ref, e.word)
			}
		}
	}
	ix := &index{table: narrow}
	ix.widen()
	for i, ref := range refs {
		if ref&addrMask < narrowRef {
			if e := ix.table.entry(i); e.ref != ref || e.word != uint32(i%2)*refBit {
				t.Fatalf("widened: slot %d reads %#x, mark %#x, want %#x", i, e.ref, e.word, ref)
			}
		}
	}
	if ix.table.hw != 2 || !ix.wide || ix.charge != ix.table.bytes()-narrow.bytes() {
		t.Fatalf("widened to %d-byte highs (wide %v), charge moved %d, want %d", ix.table.hw, ix.wide, ix.charge, ix.table.bytes()-narrow.bytes())
	}
	sl := slab{own: make([][]byte, 1<<16)}
	if ref, _ := sl.allocOwn(slabLimit + 1); ref != ownTag|1<<16 {
		t.Fatalf("own allocation %d named %#x", 1<<16, ref)
	}
}
