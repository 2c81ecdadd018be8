package engine

import (
	"sync/atomic"

	"tierbase/internal/compress"
)

// An index entry is six bytes in two arrays: a 16-bit probe word in meta,
// which is all that probing reads, and a 32-bit ref word in refs, read only
// behind a probe word that matches. Neither holds a pointer, so the garbage
// collector never looks inside a table.
//
//	meta[i]  bit 15     occupied (an empty slot is 0)
//	         bits 9-14  the low 6 bits of the entry's home slot
//	         bits 0-8   tag: the 9 hash bits that come next after the home
//	refs[i]  bit 31     ownTag (slab.go)
//	         bit 30     refBit: read or written since the clock hand last passed
//	         bits 0-29  where the record is (slab.at)
//
// refs[i] is the one word of a stripe that changes under the read lock: a
// hit sets refBit in it (touch). Readers therefore load it atomically;
// whoever holds the write lock has the table to itself and reads and writes
// it plainly. (It is not an atomic.Uint32 because entries are copied when
// runs shift and tables resize; the bit is in the ref and not in the probe
// word because sync/atomic has no 16-bit OR.)
const (
	occupied = 1 << 15
	tagBits  = 9
	reach    = 1<<6 - 1 // the farthest an entry sits from its home

	refBit = 1 << 30

	minSlots = 8
	maxTail  = reach + 1 // slots past the last home: a full reach, and the last stays empty

	// moves is the most records a write re-hashes while a resize is under
	// way: each moves one entry of the old table into the new one. The
	// writes it takes to move everything are a sixteenth of the entries:
	// half the inserts from one growth to the next (an eighth of the
	// entries), under a third of the deletes from one shrink to the next (a
	// fifth).
	moves = 16

	// spreadFrom is the shortest table that grows by an eighth and whose
	// resizes are spread over the writes that follow. A shorter one is a few
	// kilobytes of index holding at most 896 entries, which one lock hold
	// moves in tens of microseconds: it grows by a quarter and is rebuilt in
	// one hold. Eighth steps from 8 slots would take 28 resizes, two
	// allocations each, to reach 864 slots, where quarter steps take 17, and
	// a small table that takes inserts while half moved runs into its end
	// and spills.
	spreadFrom = 1024
)

// table is the index at one length: a probe word and a ref word a slot.
type table struct {
	meta  []uint16
	refs  []uint32 // as long as meta
	homes uint32   // home slots: len(meta) less the tail
}

// index is an open-addressing hash table from key to record, and the
// slab the records live in. A key's home is its slot hash scaled onto the
// table's home slots, and its tag the bits of the hash that come next, so a
// table of any length is in hash order: an entry sits at its home or after
// it, behind every entry of a lower hash (a run is sorted by home, tag and,
// on a tie, the records' hashes; a delete shifts the rest of the run back:
// no tombstones), never more than reach slots from home; past the last home
// the arrays carry a tail, so runs do not wrap. The last slot stays empty
// and ends every scan.
//
// It holds no table while empty, grows by an eighth when an insert would
// pass 7/8 full (by a quarter when one finds no slot within reach, insert,
// or the table is shorter than spreadFrom) and shrinks by a fifth when a
// delete leaves it under 9/16. A table's length is whatever fills its two
// allocations (tableLen), which makes the eighth steps 1.125 to 1.27 and
// the steps down 0.8 to 0.89, so a population that grew past spreadFrom
// rests between 0.69 and 0.875 full (0.78 where the step is an exact
// eighth), and one that shrank at 0.56 or more. A resize is spread over the
// writes that follow it: the old table stays beside the new one and each
// write moves its first few entries across, lowest hash first, so that
// every hash below bound is in the new table and every hash above it in
// the old. Not safe for concurrent use: the stripe lock guards it.
type index struct {
	table // where the entries are, or the new table while a resize is under way

	// old is the table a resize is emptying into table, while one is: its
	// first entry sits in slot front and has hash bound. No entry of table
	// hashes higher than bound, and none of old lower.
	old   table
	bound uint32
	front int

	n int // entries, the spill's included

	// spill holds the ref words of entries no table length could place: 64
	// keys of one hash fill the reach of their one home. Only a table with a
	// whole reach for a tail spills for good (a shorter one grows instead),
	// so apart from an entry parked there until a resize under way is done
	// it is nil unless somebody collides FNV-1a on purpose.
	spill []uint32

	// Positions run through table, then old, then the spill: that is hash
	// order, the spill aside.
	hand     int    // the clock hand, a position; it stays on its entry when runs shift and entries move to the new table
	unpacked []byte // the key clock last handed pinned, as written
	charge   int64  // bytes behind both tables and the spill, as the allocator rounds them
	rehashed int    // records hashed again to move their entries between tables, ever
	recs     slab
	codec    compress.Compressor // the engine's, which says where a compressed value ends (parse)

	// model is what every record's key is packed under (keypack.go). It
	// changes only in remodel, after a rebuild that runs in one hold
	// (rebuilt), at the end of the write that made it.
	model   keyModel
	rebuilt bool
	// packed is the bytes packing takes off the keys of the records: the
	// engine adds a key's when it inserts it and takes them off when it
	// removes it, and remodel adds what re-packing takes off.
	packed int64
}

// slotHash spreads fnv1a of a key as written for the index: a Fibonacci
// multiply folds every bit into the high ones the home is taken from. (The
// stripe is picked by the low bits of the same fnv1a.)
func slotHash(kh uint32) uint32 { return kh * 0x9E3779B1 }

// tableLen is the length of a table asked to hold want slots: all that its
// two allocations have room for once the allocator has rounded them up.
func tableLen(want int) int {
	return int(min(allocBytes(2*want)/2, allocBytes(4*want)/4))
}

// grown is the length a table of size slots grows to: an eighth more, or a
// quarter below spreadFrom. (Quarter steps from 8 slots reach 1024, where
// eighth steps take over.)
func grown(size int) int {
	if size < spreadFrom {
		return tableLen(max(minSlots, size+size/4))
	}
	return tableLen(size + size/8)
}

func newTable(size int) table {
	return table{meta: make([]uint16, size), refs: make([]uint32, size), homes: uint32(size - min(maxTail, size/2))}
}

// bytes is what the allocator spends on the table's two arrays.
func (t *table) bytes() int64 {
	if t.meta == nil {
		return 0
	}
	return allocBytes(2*len(t.meta)) + allocBytes(4*len(t.meta))
}

// word returns the home of an entry of hash h and its probe word. Both come
// from one product: the home is its high half, and the tag the top of its
// low half, the bits of the hash that come after the home's at this length.
// So (home, tag) is in hash order, and entries that meet in a run, which
// share the home's bits, differ in the tag's.
func (t *table) word(h uint32) (home int, w uint16) {
	p := uint64(h) * uint64(t.homes)
	home = int(p >> 32)
	return home, occupied | uint16(home&reach)<<tagBits | uint16(uint32(p)>>(32-tagBits))
}

// held is the bytes the index charges its stripe: the tables and the spill
// as allocated, and every record's slot or own allocation.
func (ix *index) held() int64 { return ix.charge + ix.recs.held() }

// away is how far the entry with probe word m in slot i is from its home.
func away(i int, m uint16) int { return (i - int(m>>tagBits)) & reach }

// keyHash is the slot hash of the key of the record ref names: that of the
// key as written, which the record holds packed.
func (ix *index) keyHash(ref uint32) uint32 {
	return slotHash(ix.model.hash(record(ix.recs.at(ref &^ refBit)).key()))
}

// rehash is keyHash under the write lock, counted: a probe word keeps 15
// bits of a hash, so what moves an entry to another table reads its record
// again.
func (ix *index) rehash(ref uint32) uint32 {
	ix.rehashed++
	return ix.keyHash(ref)
}

// slot resolves position at to its table and the slot in it, or to nil and
// its place in the spill.
func (ix *index) slot(at int) (*table, int) {
	if at < len(ix.meta) {
		return &ix.table, at
	}
	if at -= len(ix.meta); at < len(ix.old.meta) {
		return &ix.old, at
	}
	return nil, at - len(ix.old.meta)
}

// ref is the ref word of the entry at position at.
func (ix *index) ref(at int) *uint32 {
	t, i := ix.slot(at)
	if t == nil {
		return &ix.spill[i]
	}
	return &t.refs[i]
}

// record returns the record of the entry at position at.
func (ix *index) record(at int) record {
	return ix.recs.at(atomic.LoadUint32(ix.ref(at)) &^ refBit)
}

// find returns the position and the record of key, packed under the
// index's model, or -1. One compare against bound picks the table (both,
// for a hash equal to it). It reads probe words from the key's home on, a
// record only behind a word that matches in all 16 bits, and stops at the
// first entry that sorts after the key: a miss reads a record once in a
// few hundred times.
func (ix *index) find(h uint32, key []byte) (int, record) {
	if ix.n == 0 {
		return -1, nil
	}
	resizing := ix.old.meta != nil
	if resizing && h >= ix.bound {
		if i, rec := ix.findIn(&ix.old, h, key); i >= 0 {
			return len(ix.meta) + i, rec
		}
	}
	if !resizing || h <= ix.bound {
		if i, rec := ix.findIn(&ix.table, h, key); i >= 0 {
			return i, rec
		}
	}
	for at := ix.positions() - len(ix.spill); at < ix.positions(); at++ {
		if rec := ix.record(at); rec.hasKey(key) {
			return at, rec
		}
	}
	return -1, nil
}

// floor is the first slot of t that probes read: the old table's front.
// Entries leave the old table from the front and the runs they leave are
// not shifted back, so everything before it is empty, and an entry after
// it may have its home there.
func (ix *index) floor(t *table) int {
	if t == &ix.old {
		return ix.front
	}
	return 0
}

// findIn is find in one table: the slot, or -1.
func (ix *index) findIn(t *table, h uint32, key []byte) (int, record) {
	home, want := t.word(h)
	for i := max(home, ix.floor(t)); ; i++ {
		m := t.meta[i]
		if m == want {
			if rec := record(ix.recs.at(atomic.LoadUint32(&t.refs[i]) &^ refBit)); rec.hasShortKey(key) || len(key) > maxShortKey && rec.hasKey(key) {
				return i, rec
			}
		} else if d := away(i, m); m == 0 || d < i-home || d == i-home && m > want {
			return -1, nil // an empty slot, a later home, or the same home and a higher tag
		}
	}
}

// touch marks the key at position at referenced. The stripe lock in either
// mode is enough: under the read lock other readers may be setting the same
// bit, which is all that can happen to the word. Test first, because a hot
// key's bit is nearly always set and a load leaves its cache line shared.
func (ix *index) touch(at int) {
	if p := ix.ref(at); atomic.LoadUint32(p)&refBit == 0 {
		atomic.OrUint32(p, refBit)
	}
}

// replace makes ref (from recs.alloc, its record written) the record of the
// entry at position at, whose key it shares, and frees the one of size
// bytes that was there. The entry keeps its reference bit.
func (ix *index) replace(at int, ref uint32, size int) {
	since := ix.rehashed
	p := ix.ref(at)
	ix.recs.release(*p&^refBit, size)
	*p = ref | *p&refBit
	ix.step(since)
}

// insert adds ref (from recs.alloc, its record written), the record of a
// key of slotHash h that the index lacks. The key starts referenced, as at
// the head of an LRU list: wherever the hand is, it gets a lap to be read
// again.
func (ix *index) insert(h, ref uint32) {
	since := ix.rehashed
	ix.n++
	if ix.n*8 > len(ix.meta)*7 {
		ix.begin(grown(len(ix.meta)))
	}
	if !ix.put(h, ref|refBit) {
		// No slot within reach. A longer table spreads the homes apart,
		// unless this one has a whole reach for a tail and a quarter more
		// slots would make one that remove shrinks again: then this one is
		// sparse already, the keys in the way share their hash, and no
		// length tells them apart. Otherwise it grows by that quarter, not
		// by the eighth of a table that reached 7/8: a run out of reach in a
		// table under 7/8 is a stretch more crowded than the rest (the clock
		// hand leaves one ahead of it), and an eighth leaves it nearly as
		// crowded. Either way the entry waits in the spill, for good or
		// until the resize is done and places it.
		ix.setSpill(append(ix.spill, ref|refBit))
		size := len(ix.meta)
		if quarter := tableLen(size + size/4); ix.old.meta == nil && (size < 2*maxTail || ix.n*16 >= quarter*9) {
			ix.begin(quarter)
		}
	}
	ix.step(since)
}

// put places a new entry of hash h in the table that holds its hash. If the
// hand is on the stretch that moves, it moves with it: the new entry is
// behind it, a lap away. A new entry in the empty slot the hand is on,
// where nothing moves, stays under the hand: it enters marked, so the hand
// passes it with a lap to go all the same. Moving the hand on instead would
// put it on the entry that follows and keep it there while entries land
// before it, so that this one entry (a stripe's first key, say) would be
// the one taken whenever a lap finds every key marked. It reports false,
// with nothing moved, where there is no slot within reach.
func (ix *index) put(h, ref uint32) bool {
	t, off := &ix.table, 0
	if ix.old.meta != nil && h >= ix.bound {
		t, off = &ix.old, len(ix.meta)
	}
	i, end := ix.place(t, h, ref)
	if i < 0 {
		return false
	}
	if off+i <= ix.hand && ix.hand <= off+end && i < end {
		ix.hand++
	}
	return true
}

// place puts the ref word of an entry of hash h in t, in hash order (seek),
// and moves the rest of the run one slot on. It returns the slot and the
// end of what moved, or -1, with nothing moved, if that would take the
// entry or one it moves past its reach or into the last slot.
func (ix *index) place(t *table, h, ref uint32) (i, end int) {
	home, w := t.word(h)
	i = ix.seek(t, h)
	for end = i; t.meta[end] != 0; end++ {
		if away(end, t.meta[end]) == reach {
			return -1, 0
		}
	}
	if i-home > reach || end == len(t.meta)-1 {
		return -1, 0
	}
	copy(t.meta[i+1:end+1], t.meta[i:end])
	copy(t.refs[i+1:end+1], t.refs[i:end])
	t.meta[i], t.refs[i] = w, ref
	return i, end
}

// tail puts the ref word of an entry of hash h, which no entry of t hashes
// higher than, at the end of its run: in the first empty slot from its
// home on, with nothing to move and nothing to compare. It returns the
// slot, or -1 if that is past the entry's reach or the last slot.
func (t *table) tail(h, ref uint32) int {
	home, w := t.word(h)
	i := home
	for t.meta[i] != 0 {
		i++
	}
	if i-home > reach || i == len(t.meta)-1 {
		return -1
	}
	t.meta[i], t.refs[i] = w, ref
	return i
}

// setSpill makes spill the spill slice and charges it as allocated.
func (ix *index) setSpill(spill []uint32) {
	if ix.spill != nil {
		ix.charge -= allocBytes(4 * cap(ix.spill))
	}
	if ix.spill = spill; len(spill) == 0 {
		ix.spill = nil
	} else {
		ix.charge += allocBytes(4 * cap(spill))
	}
}

// begin starts a resize to size slots: the table becomes the old one, and
// from here on every write moves some of its entries into the new one
// (step). Both are charged until the old one is empty. A table shorter than
// spreadFrom is emptied at once, and then, at the end of the write (step),
// the key model may widen (remodel). A resize still under way is first
// finished in one go. The bounds make that rare: moving everything takes a
// sixteenth of the entries' worth of writes, and reaching the next resize
// at least an eighth.
func (ix *index) begin(size int) {
	ix.finish()
	old := ix.table
	ix.table = newTable(size)
	ix.charge += ix.table.bytes()
	if old.meta == nil {
		return
	}
	ix.old = old
	// A hand past the last entry has ended its lap, and the next lap starts
	// at the first: every entry is ahead of it.
	at := ix.hand
	for at < len(old.meta) && old.meta[at] == 0 {
		at++
	}
	if at == len(old.meta) && ix.spill == nil {
		ix.hand = 0
	}
	ix.hand += size // positions in the old table now come after the new one's
	ix.advance(0)
	if len(old.meta) < spreadFrom {
		ix.finish()
		ix.rebuilt = true
	}
}

// remodel widens the key model's widths to hold the digit pieces of every
// key the index holds (widths.widen), gives it the shape more than half of
// them have (learnShape) and, if that changes it, re-packs every record
// under it (setModel). A vote finds the one shape that can be a majority's
// (Boyer-Moore: a key of another shape cancels one vote), with nothing to
// allocate for a key of up to 128 bytes.
func (ix *index) remodel() {
	model := ix.model
	var buf, cb keyBuf
	cand, votes := cb[:0], 0
	for at := 0; at < ix.positions(); at++ {
		if !ix.used(at) {
			continue
		}
		key := ix.model.appendUnpacked(buf[:0], ix.record(at).key())
		model.widen(key)
		switch {
		case votes == 0:
			cand, votes = append(cand[:0], key...), 1
		case sameShape(cand, key):
			votes++
		default:
			votes--
		}
	}
	model.shape = ix.learnShape(&model.widths, shapeOf(cand, &ix.model.shape))
	if model != ix.model {
		ix.setModel(model)
	}
}

// learnShape is s, at the size its keys among the index's need, if more
// than half of the keys are of it and it packs the largest of them
// shorter than the widths w would; otherwise no shape. While the shape is
// the model's already, its size only grows.
func (ix *index) learnShape(w *widths, s shape) shape {
	if s.size == 0 {
		return shape{}
	}
	var buf, lb keyBuf
	largest, count, top := lb[:0], 0, uint64(0)
	for at := 0; at < ix.positions(); at++ {
		if !ix.used(at) {
			continue
		}
		key := ix.model.appendUnpacked(buf[:0], ix.record(at).key())
		if v, ok := shapeValue(&s, key); ok {
			if count++; count == 1 || v > top {
				largest, top = append(largest[:0], key...), v
			}
		}
	}
	s.size = uint8(width(top) + 1)
	if old := ix.model.shape; old.prefix == s.prefix && old.suffix == s.suffix && old.n == s.n {
		s.size = max(s.size, old.size)
	}
	if 2*count <= ix.n || int(s.size) >= len(appendOrdinary(w, buf[:0], largest)) {
		return shape{}
	}
	return s
}

// setModel makes model the index's and re-packs every record under it into
// a slot of a fresh slab: the old slab goes back to the heap whole, with
// the slots of the sizes its records no longer have, which no record would
// take again. Entries keep their places and their reference bits: a slot
// hash is that of the key as written.
func (ix *index) setModel(model keyModel) {
	from, recs := ix.model, ix.recs
	ix.model, ix.recs = model, slab{}
	var buf, kb keyBuf
	for at := 0; at < ix.positions(); at++ {
		if !ix.used(at) {
			continue
		}
		p := ix.ref(at)
		f := ix.parse(recs.at(*p &^ refBit))
		key := appendPacked(&model, kb[:0], from.appendUnpacked(buf[:0], f.key))
		st := staged{flags: f.flags, val: f.val, at: f.deadline}
		if f.flags&flagPMem != 0 {
			st.ref = f.ref()
		}
		ref, rec := ix.recs.alloc(recordLen(key, st))
		writeRecord(rec, key, st)
		ix.packed += int64(len(f.key) - len(key))
		*p = ref | *p&refBit
	}
}

// finish moves everything that is left across.
func (ix *index) finish() {
	for ix.old.meta != nil {
		ix.migrate(moves)
	}
}

// step spends what is left of a write's budget of moves re-hashed records,
// and at least one, on moving entries across (migrate), and lets the key
// model widen after a rebuild in one hold, once the write's own record is
// in place. since is where the rehashed count stood when the write began.
func (ix *index) step(since int) {
	ix.migrate(max(1, moves-(ix.rehashed-since)))
	if ix.rebuilt {
		ix.rebuilt = false
		ix.remodel()
	}
}

// migrate moves up to k (at most moves) of the old table's first entries to
// the ends of their runs in the new one (tail; where a run has no room, to
// the spill), and leaves their slots empty (floor), so that an entry costs
// the same whatever run it is in. It re-hashes as many records: each
// entry's hash is read while the one before it is the front. The keys are
// found first and hashed after, because finding a key is a cache miss in a
// slab that has outgrown the cache, and misses with nothing but one another
// in the way are served side by side. The hand keeps its place: an entry is
// behind it if it was, and otherwise the hand is on it or before it, since
// in hash order nothing lies between.
func (ix *index) migrate(k int) {
	if ix.old.meta == nil {
		return
	}
	k = min(k, moves)
	var keys [moves][]byte
	n := 0
	for i := ix.front + 1; n < k && i < len(ix.old.meta); i++ {
		if ix.old.meta[i] != 0 {
			keys[n] = record(ix.recs.at(ix.old.refs[i] &^ refBit)).key()
			n++
		}
	}
	var hashes [moves]uint32
	for j := range n {
		hashes[j] = slotHash(ix.model.hash(keys[j]))
	}
	ix.rehashed += n
	for j := 0; j < min(k, n+1); j++ {
		at, ref := len(ix.meta)+ix.front, ix.old.refs[ix.front]
		ahead := ix.hand <= at
		i := ix.table.tail(ix.bound, ref)
		ix.old.meta[ix.front], ix.old.refs[ix.front] = 0, 0
		if i < 0 {
			ix.setSpill(append(ix.spill, ref))
		} else if ahead {
			ix.hand = min(ix.hand, i)
		}
		if j == n {
			ix.done() // that was the last
			return
		}
		for ix.old.meta[ix.front] == 0 {
			ix.front++
		}
		ix.bound = hashes[j]
	}
}

// advance finds the old table's first entry from slot i on and reads its
// hash into bound, or with none left finishes the resize.
func (ix *index) advance(i int) {
	for ; i < len(ix.old.meta); i++ {
		if ix.old.meta[i] != 0 {
			ix.front, ix.bound = i, ix.rehash(ix.old.refs[i])
			return
		}
	}
	ix.done()
}

// done ends a resize whose old table is empty: the table goes, and what
// waited in the spill is placed if the new one has room for it.
func (ix *index) done() {
	if ix.hand >= len(ix.meta) {
		ix.hand = max(len(ix.meta), ix.hand-len(ix.old.meta))
	}
	ix.charge -= ix.old.bytes()
	ix.old, ix.front, ix.bound = table{}, 0, 0
	if ix.spill == nil {
		return
	}
	// The spill has no order, so its entries are behind the hand if it is
	// past the table and ahead of it otherwise.
	spill := ix.spill
	ix.setSpill(nil)
	ix.hand = min(ix.hand, len(ix.meta))
	for _, ref := range spill {
		if i, end := ix.place(&ix.table, ix.rehash(ref), ref); i < 0 {
			ix.setSpill(append(ix.spill, ref))
		} else if i <= ix.hand && ix.hand <= end {
			ix.hand++
		}
	}
	// A table under two reaches long has less than one for a tail, and what
	// it could not place ran into its end, not out of reach: honest keys,
	// which the next length up has room for.
	if ix.spill != nil && len(ix.meta) < 2*maxTail {
		ix.begin(grown(len(ix.meta)))
	}
}

// remove frees the record of size bytes of the entry at position at, closes
// the gap and lets the table shrink.
func (ix *index) remove(at, size int) {
	since := ix.rehashed
	ix.removeAt(at, size)
	if ix.n == 0 {
		ix.table, ix.old, ix.spill, ix.hand, ix.charge = table{}, table{}, nil, 0, 0
		return
	}
	if ix.n*16 < len(ix.meta)*9 {
		if shrunk := tableLen(max(minSlots, len(ix.meta)*4/5)); shrunk < len(ix.meta) {
			ix.begin(shrunk)
		}
	}
	ix.step(since)
}

// removeAt frees the record of size bytes of the entry at position at and
// closes the gap. In the spill the last entry fills it.
func (ix *index) removeAt(at, size int) {
	ix.recs.release(*ix.ref(at)&^refBit, size)
	ix.n--
	switch t, i := ix.slot(at); {
	case t == nil:
		last := len(ix.spill) - 1
		ix.spill[i] = ix.spill[last]
		ix.setSpill(ix.spill[:last])
	case t == &ix.old:
		ix.close(t, i, len(ix.meta))
		if i == ix.front {
			ix.advance(i)
		}
	default:
		ix.close(t, i, 0)
	}
}

// close empties slot i of t, whose positions start at off: the rest of its
// run, up to the first entry that sits at its home, moves one slot back,
// and the hand with it if it is on that stretch.
func (ix *index) close(t *table, i, off int) {
	end := i + 1
	for m := t.meta[end]; m != 0 && away(end, m) != 0; m = t.meta[end] {
		end++
	}
	copy(t.meta[i:], t.meta[i+1:end])
	copy(t.refs[i:], t.refs[i+1:end])
	t.meta[end-1], t.refs[end-1] = 0, 0
	if off+i < ix.hand && ix.hand < off+end {
		ix.hand--
	}
}

// positions is one past the last position an entry can have.
func (ix *index) positions() int { return len(ix.meta) + len(ix.old.meta) + len(ix.spill) }

// used reports whether position at holds an entry.
func (ix *index) used(at int) bool {
	t, i := ix.slot(at)
	return t == nil || t.meta[i] != 0
}

// each calls fn for every record until it returns false.
func (ix *index) each(fn func(rec record) bool) {
	for at := 0; at < ix.positions(); at++ {
		if ix.used(at) && !fn(ix.record(at)) {
			return
		}
	}
}

// scan calls fn for up to *limit records (it counts them off; past it only
// to finish keys of one hash), in hash order from the first whose slot hash
// is not below from. It returns the
// hash of the first record it did not visit, to resume from, and whether
// none was left. A hash, unlike a position, means the same thing at any
// table length and on either side of a resize under way. What is in the
// spill goes with the last stretch. Read lock only: it re-hashes one record
// to say where to resume, uncounted.
func (ix *index) scan(from uint32, limit *int, fn func(rec record)) (next uint32, end bool) {
	if ix.n == 0 {
		return 0, true
	}
	at, tables := len(ix.meta), len(ix.meta)+len(ix.old.meta)
	if ix.old.meta != nil && from > ix.bound {
		at += ix.seek(&ix.old, from)
	} else {
		at = ix.seek(&ix.table, from)
	}
	for prev := -1; at < tables; at++ {
		if !ix.used(at) {
			continue
		}
		if *limit <= 0 {
			// Past the limit, but not in the middle of keys of one hash:
			// the next call would meet the ones before the stop again.
			h := ix.keyHash(atomic.LoadUint32(ix.ref(at)))
			if prev < 0 || h != ix.keyHash(atomic.LoadUint32(ix.ref(prev))) {
				return h, false
			}
		}
		*limit--
		fn(ix.record(at))
		prev = at
	}
	for ; at < ix.positions(); at++ {
		*limit--
		fn(ix.record(at))
	}
	return 0, true
}

// seek is the slot of t where an entry of hash h goes: behind every entry of
// a lower home and tag, and of an equal one whose own hash, which it reads
// (one pair of entries of a home in 512), is lower, and before the rest.
func (ix *index) seek(t *table, h uint32) int {
	home, w := t.word(h)
	i := max(home, ix.floor(t))
	for m := t.meta[i]; m != 0; m = t.meta[i] {
		if d := away(i, m); d < i-home || d == i-home && (m > w || m == w && ix.keyHash(atomic.LoadUint32(&t.refs[i])) >= h) {
			break
		}
		i++
	}
	return i
}

// clock advances the hand towards the last position, looking at up to *look
// entries (it counts them off). One with its reference bit set loses the
// bit, without its record being read, and is due a second look a lap from
// here, so *look becomes lap. Only an unmarked one has its record parsed: if
// pinned (nil: none is) holds its key it is passed over, and otherwise it is
// the victim, whose position and parsed record clock returns with the hand
// left on it, so that after the caller's remove the hand is on whatever
// shifted in. pinned gets the key unpacked, in a buffer the next call
// reuses. With no victim it returns -1, and end tells whether it was the
// positions that ran out (the hand is back at 0) or *look.
func (ix *index) clock(look *int, lap int, pinned func(key []byte) bool) (at int, victim fields, end bool) {
	at = ix.hand
	for ; at < ix.positions() && *look > 0; at++ {
		if !ix.used(at) {
			continue
		}
		*look--
		p := ix.ref(at)
		if *p&refBit != 0 {
			*p &^= refBit
			*look = lap
			continue
		}
		f := ix.parse(ix.recs.at(*p))
		if pinned != nil {
			ix.unpacked = ix.model.appendUnpacked(ix.unpacked[:0], f.key)
		}
		if pinned == nil || !pinned(ix.unpacked) {
			ix.hand = at
			return at, f, false
		}
	}
	end = at >= ix.positions()
	if end {
		at = 0
	}
	ix.hand = at
	return -1, fields{}, end
}

// sizeClasses are the Go allocator's small-object sizes, read off the
// running runtime rather than copied from it: append rounds a fresh
// backing array up to its size class and reports that as the capacity.
var sizeClasses = func() []int {
	var classes []int
	for n := 1; n <= 32768; {
		c := cap(append([]byte(nil), make([]byte, n)...))
		classes = append(classes, c)
		n = c + 1
	}
	return classes
}()

// allocBytes is what the heap spends on an n-byte pointer-free object: n
// rounded up to its size class, or to whole 8 KiB pages past the largest.
func allocBytes(n int) int64 {
	lo, hi := 0, len(sizeClasses)
	for lo < hi {
		if mid := (lo + hi) / 2; sizeClasses[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sizeClasses) {
		return int64(sizeClasses[lo])
	}
	return (int64(n) + 8191) &^ 8191
}
