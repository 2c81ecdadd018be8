package engine

import (
	"sync/atomic"

	"tierbase/internal/compress"
)

// An index entry is five bytes in two arrays (six once its stripe's slab
// has passed 4 MiB): a 32-bit word in words, which is all that probing
// reads, and the rest of the record's ref in high, read only behind a word
// whose probe bits match. Neither holds a pointer, so the garbage collector
// never looks inside a table.
//
//	words[i]  bit 31      occupied (an empty slot is 0)
//	          bits 25-30  the low 6 bits of the entry's home slot
//	          bits 17-24  tag: the 8 hash bits that come next after the home
//	          bit 16      refBit: read or written since the clock hand last passed
//	          bits 0-15   the ref's low 16 bits
//	high[i]   1 byte:     ownTag, bareRef, the ref's bits 16-21
//	          or 2 bytes: the ref's bits 16-31
//
// A ref is the slab's name for the record's slot (slab.at), with bareRef
// set if the record is stored without its header byte (record.go): ownTag
// in bit 31, bareRef in bit 30, the address in bits 0-29. A table's high
// is 1 byte a slot while its stripe's slab has handed out no address of
// more than 22 bits (page refs under 4 MiB a stripe) and 2 bytes after
// that: the first ref past that widens the index's tables, in place and
// once (widen).
//
// A word is the one thing in a stripe that changes under the read lock: a
// hit sets refBit in it (touch). Readers therefore load words atomically;
// whoever holds the write lock has the table to itself and reads and
// writes it plainly. (It is not an atomic.Uint32 because entries are
// copied when runs shift and tables resize.) high changes only under the
// write lock.
const (
	occupied  = 1 << 31
	homeShift = 25
	tagBits   = 8
	tagShift  = 17
	probeMask = ^uint32(1<<tagShift - 1) // occupied, home and tag: the probe word
	reach     = 1<<6 - 1                 // the farthest an entry sits from its home

	refBit  = 1 << 16
	lowMask = 1<<16 - 1

	bareRef   = 1 << 30 // in a ref: the record has no header byte
	addrMask  = bareRef - 1
	narrowRef = 1 << 22 // the addresses a 1-byte high holds

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

// table is the index at one length: a word and a high part a slot.
type table struct {
	words []uint32
	high  []byte // hw bytes a slot
	hw    int    // 1 or 2
	homes uint32 // home slots: len(words) less the tail
}

// spilled is an entry out of a table: its ref, and a word that holds its
// reference bit and nothing else. It is what the spill keeps, and what
// moves an entry from one table to another.
type spilled struct{ ref, word uint32 }

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
// delete leaves it under 9/16. A table's length is whatever fills its word
// array (tableLen), which makes the eighth steps 1.125 to 1.27 and
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

	// spill holds the entries no table length could place: 64 keys of one
	// hash fill the reach of their one home. Only a table with a whole
	// reach for a tail spills for good (a shorter one grows instead), so
	// apart from an entry parked there until a resize under way is done it
	// is nil unless somebody collides FNV-1a on purpose.
	spill []spilled

	// Positions run through table, then old, then the spill: that is hash
	// order, the spill aside.
	hand     int    // the clock hand, a position; it stays on its entry when runs shift and entries move to the new table
	unpacked []byte // the key clock last handed pinned, as written
	charge   int64  // bytes behind both tables and the spill, as the allocator rounds them
	rehashed int    // records hashed again to move their entries between tables, ever
	recs     slab
	wide     bool                // the tables have 2-byte highs: the slab has handed out an address past narrowRef
	codec    compress.Compressor // the engine's, which says where a compressed value ends (parse)
	head     byte                // bareHead, kept beside the codec and the model it follows from

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

// newIndex is an empty index whose values are compressed under codec, nil
// for none.
func newIndex(codec compress.Compressor) index {
	ix := index{codec: codec}
	ix.head = ix.bareHead()
	return ix
}

// slotHash spreads fnv1a of a key as written for the index: a Fibonacci
// multiply folds every bit into the high ones the home is taken from. (The
// stripe is picked by the low bits of the same fnv1a.)
func slotHash(kh uint32) uint32 { return kh * 0x9E3779B1 }

// tableLen is the length of a table asked to hold want slots: all that its
// word array has room for once the allocator has rounded it up. The high
// array is charged as allocated and its slack left unused: the finer size
// classes of small byte arrays would put rungs between the word array's,
// and a population resting under 7/8 of one would sit past 7/8 of another.
func tableLen(want int) int { return int(allocBytes(4*want) / 4) }

// highWidth is the bytes of high a table of the index takes a slot.
func (ix *index) highWidth() int {
	if ix.wide {
		return 2
	}
	return 1
}

// grown is the length a table of size slots grows to: an eighth more, or a
// quarter below spreadFrom. (Quarter steps from 8 slots reach 1024, where
// eighth steps take over.)
func (ix *index) grown(size int) int {
	if size < spreadFrom {
		return tableLen(max(minSlots, size+size/4))
	}
	return tableLen(size + size/8)
}

func newTable(size, hw int) table {
	return table{words: make([]uint32, size), high: make([]byte, hw*size), hw: hw, homes: uint32(size - min(maxTail, size/2))}
}

// bytes is what the allocator spends on the table's two arrays.
func (t *table) bytes() int64 {
	if t.words == nil {
		return 0
	}
	return allocBytes(4*len(t.words)) + allocBytes(len(t.high))
}

// word returns the home of an entry of hash h and its probe word. Both come
// from one product: the home is its high half, and the tag the top of its
// low half, the bits of the hash that come after the home's at this length.
// So (home, tag) is in hash order, and entries that meet in a run, which
// share the home's bits, differ in the tag's.
func (t *table) word(h uint32) (home int, w uint32) {
	p := uint64(h) * uint64(t.homes)
	home = int(p >> 32)
	return home, occupied | uint32(home&reach)<<homeShift | uint32(p)>>(32-tagBits)<<tagShift
}

// refOf is the ref of the entry in slot i, whose word is w.
func (t *table) refOf(i int, w uint32) uint32 {
	if t.hw == 1 {
		b := uint32(t.high[i])
		return b&0xC0<<24 | b&0x3F<<16 | w&lowMask
	}
	return uint32(t.high[2*i])<<16 | uint32(t.high[2*i+1])<<24 | w&lowMask
}

// setRef makes ref the ref of the entry in slot i, which keeps its probe
// word and reference bit.
func (t *table) setRef(i int, ref uint32) {
	t.words[i] = t.words[i]&^lowMask | ref&lowMask
	t.setHigh(i, ref)
}

// setHigh writes what slot i's high part keeps of ref.
func (t *table) setHigh(i int, ref uint32) {
	if t.hw == 1 {
		t.high[i] = byte(ref>>24)&0xC0 | byte(ref>>16)&0x3F
	} else {
		t.high[2*i], t.high[2*i+1] = byte(ref>>16), byte(ref>>24)
	}
}

// set puts e in slot i under probe word w.
func (t *table) set(i int, w uint32, e spilled) {
	t.words[i] = w | e.word&refBit | e.ref&lowMask
	t.setHigh(i, e.ref)
}

// entry is the entry in slot i, out of its table.
func (t *table) entry(i int) spilled {
	w := t.words[i]
	return spilled{ref: t.refOf(i, w), word: w & refBit}
}

// shift copies the n entries from slot from on to slot to on.
func (t *table) shift(to, from, n int) {
	copy(t.words[to:to+n], t.words[from:from+n])
	copy(t.high[to*t.hw:(to+n)*t.hw], t.high[from*t.hw:(from+n)*t.hw])
}

// clear empties slot i.
func (t *table) clear(i int) {
	t.words[i] = 0
	t.setHigh(i, 0)
}

// held is the bytes the index charges its stripe: the tables and the spill
// as allocated, and every record's slot or own allocation.
func (ix *index) held() int64 { return ix.charge + ix.recs.held() }

// away is how far the entry with word m in slot i is from its home.
func away(i int, m uint32) int { return (i - int(m>>homeShift)) & reach }

// rec is the record ref names.
func (ix *index) rec(ref uint32) record {
	return view(ix.recs.at(ref&^bareRef), ref, ix.head)
}

// alloc returns a slot of n bytes for a record and its ref. A ref whose
// address the tables' highs cannot hold widens them first.
func (ix *index) alloc(n int) (uint32, []byte) {
	ref, buf := ix.recs.alloc(n)
	if ref&addrMask >= narrowRef && !ix.wide {
		ix.widen()
	}
	return ref, buf
}

// store writes the record of key, packed under the model, and st into a
// slot of its own, bare if the rule says so, and returns its ref.
func (ix *index) store(key []byte, st staged) uint32 {
	if ix.bare(key, st.flags) {
		ref, buf := ix.alloc(recordLen(key, st) - 1)
		writeBody(buf, key, st)
		return ref | bareRef
	}
	ref, buf := ix.alloc(recordLen(key, st))
	writeRecord(buf, key, st)
	return ref
}

// free releases the slot of the record of size bytes that ref names.
func (ix *index) free(ref uint32, size int) { ix.recs.release(ref&^bareRef, size) }

// widen gives the index's tables, the old one too while a resize is under
// way, 2-byte highs at the lengths they have, and every table it makes from
// here on: the slab is about to hand out a ref that a 1-byte high cannot
// hold. Every entry keeps its slot, so a position found before holds.
func (ix *index) widen() {
	ix.wide = true
	for _, t := range []*table{&ix.table, &ix.old} {
		if t.words == nil {
			continue
		}
		ix.charge -= t.bytes()
		high := make([]byte, 2*len(t.words))
		for i, b := range t.high {
			high[2*i], high[2*i+1] = b&0x3F, b&0xC0
		}
		t.high, t.hw = high, 2
		ix.charge += t.bytes()
	}
}

// keyHash is the slot hash of the key of the record ref names: that of the
// key as written, which the record holds packed.
func (ix *index) keyHash(ref uint32) uint32 {
	return slotHash(ix.model.hash(ix.rec(ref).key()))
}

// rehash is keyHash under the write lock, counted: a probe word keeps 14
// bits of a hash, so what moves an entry to another table reads its record
// again.
func (ix *index) rehash(ref uint32) uint32 {
	ix.rehashed++
	return ix.keyHash(ref)
}

// slot resolves position at to its table and the slot in it, or to nil and
// its place in the spill.
func (ix *index) slot(at int) (*table, int) {
	if at < len(ix.words) {
		return &ix.table, at
	}
	if at -= len(ix.words); at < len(ix.old.words) {
		return &ix.old, at
	}
	return nil, at - len(ix.old.words)
}

// mark is the word that holds the reference bit of the entry at position at.
func (ix *index) mark(at int) *uint32 {
	t, i := ix.slot(at)
	if t == nil {
		return &ix.spill[i].word
	}
	return &t.words[i]
}

// refAt is the ref of the entry at position at. The read lock is enough.
func (ix *index) refAt(at int) uint32 {
	t, i := ix.slot(at)
	if t == nil {
		return ix.spill[i].ref
	}
	return t.refOf(i, atomic.LoadUint32(&t.words[i]))
}

// setRef makes ref the ref of the entry at position at, which keeps its
// reference bit.
func (ix *index) setRef(at int, ref uint32) {
	if t, i := ix.slot(at); t == nil {
		ix.spill[i].ref = ref
	} else {
		t.setRef(i, ref)
	}
}

// record returns the record of the entry at position at.
func (ix *index) record(at int) record { return ix.rec(ix.refAt(at)) }

// find returns the position and the record of key, packed under the
// index's model, or -1. One compare against bound picks the table (both,
// for a hash equal to it). It reads words from the key's home on, a record
// only behind a word whose 15 probe bits match, and stops at the first
// entry that sorts after the key: a miss in a stripe of the ledger's
// population reads a record once in about 300 times.
func (ix *index) find(h uint32, key []byte) (int, record) {
	if ix.n == 0 {
		return -1, record{}
	}
	resizing := ix.old.words != nil
	if resizing && h >= ix.bound {
		if i, rec := ix.findIn(&ix.old, h, key); i >= 0 {
			return len(ix.words) + i, rec
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
	return -1, record{}
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
		m := atomic.LoadUint32(&t.words[i])
		if m&probeMask == want {
			if rec := ix.rec(t.refOf(i, m)); rec.hasShortKey(key) || len(key) > maxShortKey && rec.hasKey(key) {
				return i, rec
			}
		} else if d := away(i, m); m == 0 || d < i-home || d == i-home && m&probeMask > want {
			return -1, record{} // an empty slot, a later home, or the same home and a higher tag
		}
	}
}

// touch marks the key at position at referenced. The stripe lock in either
// mode is enough: under the read lock other readers may be setting the same
// bit, which is all that can happen to the word. Test first, because a hot
// key's bit is nearly always set and a load leaves its cache line shared.
func (ix *index) touch(at int) {
	if p := ix.mark(at); atomic.LoadUint32(p)&refBit == 0 {
		atomic.OrUint32(p, refBit)
	}
}

// replace makes ref (from store, its record written) the record of the
// entry at position at, whose key it shares, and frees the one of size
// bytes that was there. The entry keeps its reference bit.
func (ix *index) replace(at int, ref uint32, size int) {
	since := ix.rehashed
	ix.free(ix.refAt(at), size)
	ix.setRef(at, ref)
	ix.step(since)
}

// insert adds ref (from store, its record written), the record of a key of
// slotHash h that the index lacks. The key starts referenced, as at the
// head of an LRU list: wherever the hand is, it gets a lap to be read
// again.
func (ix *index) insert(h, ref uint32) {
	since := ix.rehashed
	ix.n++
	if ix.n*8 > len(ix.words)*7 {
		ix.begin(ix.grown(len(ix.words)))
	}
	e := spilled{ref: ref, word: refBit}
	if !ix.put(h, e) {
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
		ix.setSpill(append(ix.spill, e))
		size := len(ix.words)
		if quarter := tableLen(size + size/4); ix.old.words == nil && (size < 2*maxTail || ix.n*16 >= quarter*9) {
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
func (ix *index) put(h uint32, e spilled) bool {
	t, off := &ix.table, 0
	if ix.old.words != nil && h >= ix.bound {
		t, off = &ix.old, len(ix.words)
	}
	i, end := ix.place(t, h, e)
	if i < 0 {
		return false
	}
	if off+i <= ix.hand && ix.hand <= off+end && i < end {
		ix.hand++
	}
	return true
}

// place puts e, an entry of hash h, in t, in hash order (seek), and moves
// the rest of the run one slot on. It returns the slot and the end of what
// moved, or -1, with nothing moved, if that would take the entry or one it
// moves past its reach or into the last slot.
func (ix *index) place(t *table, h uint32, e spilled) (i, end int) {
	home, w := t.word(h)
	i = ix.seek(t, h)
	for end = i; t.words[end] != 0; end++ {
		if away(end, t.words[end]) == reach {
			return -1, 0
		}
	}
	if i-home > reach || end == len(t.words)-1 {
		return -1, 0
	}
	t.shift(i+1, i, end-i)
	t.set(i, w, e)
	return i, end
}

// tail puts e, an entry of hash h, which no entry of t hashes higher than,
// at the end of its run: in the first empty slot from its home on, with
// nothing to move and nothing to compare. It returns the slot, or -1 if
// that is past the entry's reach or the last slot.
func (t *table) tail(h uint32, e spilled) int {
	home, w := t.word(h)
	i := home
	for t.words[i] != 0 {
		i++
	}
	if i-home > reach || i == len(t.words)-1 {
		return -1
	}
	t.set(i, w, e)
	return i
}

// setSpill makes spill the spill slice and charges it as allocated.
func (ix *index) setSpill(spill []spilled) {
	const each = 8 // bytes a spilled entry takes
	if ix.spill != nil {
		ix.charge -= allocBytes(each * cap(ix.spill))
	}
	if ix.spill = spill; len(spill) == 0 {
		ix.spill = nil
	} else {
		ix.charge += allocBytes(each * cap(spill))
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
	ix.table = newTable(size, ix.highWidth())
	ix.charge += ix.table.bytes()
	if old.words == nil {
		return
	}
	ix.old = old
	// A hand past the last entry has ended its lap, and the next lap starts
	// at the first: every entry is ahead of it.
	at := ix.hand
	for at < len(old.words) && old.words[at] == 0 {
		at++
	}
	if at == len(old.words) && ix.spill == nil {
		ix.hand = 0
	}
	ix.hand += size // positions in the old table now come after the new one's
	ix.advance(0)
	if len(old.words) < spreadFrom {
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
// a slot of a fresh slab, bare or not as the rule says under it: the old
// slab goes back to the heap whole, with the slots of the sizes its records
// no longer have, which no record would take again. Entries keep their
// places and their reference bits: a slot hash is that of the key as
// written.
func (ix *index) setModel(model keyModel) {
	from, recs, head := ix.model, ix.recs, ix.head
	ix.model, ix.recs = model, slab{}
	ix.head = ix.bareHead()
	var buf, kb keyBuf
	for at := 0; at < ix.positions(); at++ {
		if !ix.used(at) {
			continue
		}
		ref := ix.refAt(at)
		f := ix.parse(view(recs.at(ref&^bareRef), ref, head))
		key := appendPacked(&model, kb[:0], from.appendUnpacked(buf[:0], f.key))
		st := staged{flags: f.flags, val: f.val, at: f.deadline}
		if f.flags&flagPMem != 0 {
			st.ref = f.ref()
		}
		ix.setRef(at, ix.store(key, st))
		ix.packed += int64(len(f.key) - len(key))
	}
}

// finish moves everything that is left across.
func (ix *index) finish() {
	for ix.old.words != nil {
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
// read first and hashed after, because reading a key is a cache miss in a
// slab that has outgrown the cache, and misses with nothing but one another
// in the way are served side by side. A short key is copied out of its
// record to read it: a bare record's key is found without a load, its
// header being the stripe's, and the first load would come in the hash,
// one miss at a time. The hand keeps its place: an entry is behind it if it was, and
// otherwise the hand is on it or before it, since in hash order nothing
// lies between.
func (ix *index) migrate(k int) {
	if ix.old.words == nil {
		return
	}
	k = min(k, moves)
	var keys [moves][]byte
	var short [moves][maxShortKey]byte
	n := 0
	for i := ix.front + 1; n < k && i < len(ix.old.words); i++ {
		if w := ix.old.words[i]; w != 0 {
			key := ix.rec(ix.old.refOf(i, w)).key()
			if len(key) <= maxShortKey {
				for b, c := range key {
					short[n][b] = c
				}
				key = short[n][:len(key)]
			}
			keys[n] = key
			n++
		}
	}
	var hashes [moves]uint32
	for j := range n {
		hashes[j] = slotHash(ix.model.hash(keys[j]))
	}
	ix.rehashed += n
	for j := 0; j < min(k, n+1); j++ {
		at, e := len(ix.words)+ix.front, ix.old.entry(ix.front)
		ahead := ix.hand <= at
		i := ix.table.tail(ix.bound, e)
		ix.old.clear(ix.front)
		if i < 0 {
			ix.setSpill(append(ix.spill, e))
		} else if ahead {
			ix.hand = min(ix.hand, i)
		}
		if j == n {
			ix.done() // that was the last
			return
		}
		for ix.old.words[ix.front] == 0 {
			ix.front++
		}
		ix.bound = hashes[j]
	}
}

// advance finds the old table's first entry from slot i on and reads its
// hash into bound, or with none left finishes the resize.
func (ix *index) advance(i int) {
	for ; i < len(ix.old.words); i++ {
		if w := ix.old.words[i]; w != 0 {
			ix.front, ix.bound = i, ix.rehash(ix.old.refOf(i, w))
			return
		}
	}
	ix.done()
}

// done ends a resize whose old table is empty: the table goes, and what
// waited in the spill is placed if the new one has room for it.
func (ix *index) done() {
	if ix.hand >= len(ix.words) {
		ix.hand = max(len(ix.words), ix.hand-len(ix.old.words))
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
	ix.hand = min(ix.hand, len(ix.words))
	for _, e := range spill {
		if i, end := ix.place(&ix.table, ix.rehash(e.ref), e); i < 0 {
			ix.setSpill(append(ix.spill, e))
		} else if i <= ix.hand && ix.hand <= end {
			ix.hand++
		}
	}
	// A table under two reaches long has less than one for a tail, and what
	// it could not place ran into its end, not out of reach: honest keys,
	// which the next length up has room for.
	if ix.spill != nil && len(ix.words) < 2*maxTail {
		ix.begin(ix.grown(len(ix.words)))
	}
}

// remove frees the record of size bytes of the entry at position at, closes
// the gap and lets the table shrink.
func (ix *index) remove(at, size int) {
	since := ix.rehashed
	ix.removeAt(at, size)
	if ix.n == 0 {
		// The slab is empty too, and hands out its lowest addresses again.
		ix.table, ix.old, ix.spill, ix.hand, ix.charge, ix.wide = table{}, table{}, nil, 0, 0, false
		return
	}
	if ix.n*16 < len(ix.words)*9 {
		if shrunk := tableLen(max(minSlots, len(ix.words)*4/5)); shrunk < len(ix.words) {
			ix.begin(shrunk)
		}
	}
	ix.step(since)
}

// removeAt frees the record of size bytes of the entry at position at and
// closes the gap. In the spill the last entry fills it.
func (ix *index) removeAt(at, size int) {
	ix.free(ix.refAt(at), size)
	ix.n--
	switch t, i := ix.slot(at); {
	case t == nil:
		last := len(ix.spill) - 1
		ix.spill[i] = ix.spill[last]
		ix.setSpill(ix.spill[:last])
	case t == &ix.old:
		ix.close(t, i, len(ix.words))
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
	for m := t.words[end]; m != 0 && away(end, m) != 0; m = t.words[end] {
		end++
	}
	t.shift(i, i+1, end-i-1)
	t.clear(end - 1)
	if off+i < ix.hand && ix.hand < off+end {
		ix.hand--
	}
}

// positions is one past the last position an entry can have.
func (ix *index) positions() int { return len(ix.words) + len(ix.old.words) + len(ix.spill) }

// used reports whether position at holds an entry.
func (ix *index) used(at int) bool {
	t, i := ix.slot(at)
	return t == nil || atomic.LoadUint32(&t.words[i]) != 0
}

// each calls fn for every record until it returns false.
func (ix *index) each(fn func(rec record) bool) {
	for at := 0; at < ix.positions(); at++ {
		if ix.used(at) && !fn(ix.record(at)) {
			return
		}
	}
}

// scan calls fn for records in hash order from the first whose slot hash is
// not below from, taking what fn returns off *limit until it is spent (past
// it only to finish keys of one hash), then for the spilled entries whose
// hashes fall in the stretch it covered. It returns the hash of the first
// record it did not visit, to resume from, and whether none was left. A
// hash, unlike a position, means the same thing at any table length, on
// either side of a resize under way and in the spill, so calls that resume
// one another meet every entry present throughout exactly once. Read lock
// only: it re-hashes the record it stops at and every spilled one, uncounted.
func (ix *index) scan(from uint32, limit *int, fn func(rec record) int) (next uint32, end bool) {
	if ix.n == 0 {
		return 0, true
	}
	at, tables := len(ix.words), len(ix.words)+len(ix.old.words)
	if ix.old.words != nil && from > ix.bound {
		at += ix.seek(&ix.old, from)
	} else {
		at = ix.seek(&ix.table, from)
	}
	end = true
	for prev := -1; at < tables; at++ {
		if !ix.used(at) {
			continue
		}
		if *limit <= 0 {
			// Past the limit, but not in the middle of keys of one hash:
			// the next call would meet the ones before the stop again.
			h := ix.keyHash(ix.refAt(at))
			if prev < 0 || h != ix.keyHash(ix.refAt(prev)) {
				next, end = h, false
				break
			}
		}
		*limit -= fn(ix.record(at))
		prev = at
	}
	for _, e := range ix.spill {
		if h := ix.keyHash(e.ref); h >= from && (end || h < next) {
			*limit -= fn(ix.rec(e.ref))
		}
	}
	return next, end
}

// seek is the slot of t where an entry of hash h goes: behind every entry of
// a lower home and tag, and of an equal one whose own hash, which it reads
// (one pair of entries of a home in 256), is lower, and before the rest.
func (ix *index) seek(t *table, h uint32) int {
	home, w := t.word(h)
	i := max(home, ix.floor(t))
	for m := atomic.LoadUint32(&t.words[i]); m != 0; m = atomic.LoadUint32(&t.words[i]) {
		if d, p := away(i, m), m&probeMask; d < i-home || d == i-home && (p > w || p == w && ix.keyHash(t.refOf(i, m)) >= h) {
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
		if p := ix.mark(at); *p&refBit != 0 {
			*p &^= refBit
			*look = lap
			continue
		}
		f := ix.parse(ix.record(at))
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
