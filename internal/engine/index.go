package engine

import (
	"reflect"
	"sync/atomic"
)

// An index entry is six bytes in two arrays: a 16-bit probe word in meta,
// which is all that probing reads, and a 32-bit ref word in refs, read only
// behind a probe word that matches. Neither holds a pointer, so the garbage
// collector never looks inside a table.
//
//	meta[i]  bit 15     occupied (an empty slot is 0)
//	         bits 9-14  the low 6 bits of the entry's home slot
//	         bits 0-8   tag: 9 hash bits the home was not taken from
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

	// tagMul takes the tag from the top of a second product of the slot
	// hash. Entries that meet in a run share the hash's top bits (their homes
	// are close) and, in an engine of several stripes, its low bits (the
	// stripe's); the product folds what lies between into the tag wherever
	// that is, so a one-stripe engine and a million-slot table both get the
	// bits the hash has left.
	tagMul = 0x85EBCA6B

	minSlots = 8
	maxTail  = reach + 1 // slots past the last home: a full reach, and the last stays empty
)

// itemBytes is the allocation behind a collection's *item.
var itemBytes = int(reflect.TypeOf(item{}).Size())

// index is an open-addressing hash table from key to string record, and the
// slab the records live in. A key's home is its slot hash scaled onto the
// table's home slots, so a table of any length is in hash order. An entry
// sits at its home or after it, behind every entry whose home is not past
// its own (a run is sorted by home, and a delete shifts the rest of the run
// back: no tombstones), never more than reach slots from home; past the
// last home the arrays carry a tail, so runs do not wrap. The last slot
// stays empty and ends every scan.
//
// It holds no table while empty, grows by a quarter when an insert would
// pass 7/8 full and shrinks by a fifth when a delete leaves it under 9/16. A
// table's length is whatever fills its two allocations (tableLen), which
// makes the steps 1.2 to 1.4 up and 0.8 to 0.85 down, so a population that
// grew rests between 0.62 and 0.875 full and one that shrank at 0.56 or
// more. Not safe for concurrent use: the stripe lock
// guards it.
type index struct {
	meta  []uint16
	refs  []uint32 // as long as meta
	homes uint32   // home slots: len(meta) less the tail
	n     int      // entries, the spill's included

	// spill holds the ref words of entries no table length could place: 64
	// keys of one hash fill the reach of their one home. Only a table with a
	// whole reach for a tail spills (a shorter one grows instead), so it is
	// nil unless somebody collides FNV-1a on purpose. The position of
	// spill[k] is len(meta)+k.
	spill []uint32

	hand   int   // the clock hand, a position; it stays on its entry when runs shift and tables resize
	charge int64 // bytes behind meta, refs and spill, as the allocator rounds them
	recs   slab
}

// slotHash spreads the key hash for the index. The stripe was picked from
// the low bits of kh, which are therefore equal across one index; a
// Fibonacci multiply folds every bit into the high ones the home is taken
// from.
func slotHash(kh uint32) uint32 { return kh * 0x9E3779B1 }

// tableLen is the length of a table asked to hold want slots: all that its
// two allocations have room for once the allocator has rounded them up.
func tableLen(want int) int {
	return int(min(allocBytes(2*want)/2, allocBytes(4*want)/4))
}

// held is the bytes the index charges its stripe: the table and the spill
// as allocated, and every record's slot or own allocation.
func (ix *index) held() int64 { return ix.charge + ix.recs.held() }

// home is the slot an entry of hash h sits in when nothing is in its way.
func (ix *index) home(h uint32) int { return int(uint64(h) * uint64(ix.homes) >> 32) }

// word is the probe word of an entry of hash h whose home is home.
func word(h uint32, home int) uint16 {
	return occupied | uint16(home&reach)<<tagBits | uint16(h*tagMul>>(32-tagBits))
}

// away is how far the entry with probe word m in slot i is from its home.
func away(i int, m uint16) int { return (i - int(m>>tagBits)) & reach }

// ref is the ref word of the entry at position at: in the table, or past
// its end in the spill.
func (ix *index) ref(at int) *uint32 {
	if at < len(ix.refs) {
		return &ix.refs[at]
	}
	return &ix.spill[at-len(ix.refs)]
}

// record returns the record of the entry at position at.
func (ix *index) record(at int) record {
	return ix.recs.at(atomic.LoadUint32(ix.ref(at)) &^ refBit)
}

// find returns the position and the record of key, or -1. It reads probe
// words from the key's home on, a record only behind a word that matches in
// all 16 bits, and stops at the first entry whose home is past the key's:
// a miss reads a record once in a few hundred times.
func (ix *index) find(h uint32, key string) (int, record) {
	if ix.n == 0 {
		return -1, nil
	}
	home := ix.home(h)
	want := word(h, home)
	for i := home; ; i++ {
		m := ix.meta[i]
		if m == want {
			if rec := ix.record(i); rec.hasShortKey(key) || len(key) > maxShortKey && rec.hasKey(key) {
				return i, rec
			}
		} else if m == 0 || away(i, m) < i-home {
			break
		}
	}
	for k := range ix.spill {
		if rec := ix.record(len(ix.refs) + k); rec.hasKey(key) {
			return len(ix.refs) + k, rec
		}
	}
	return -1, nil
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
// bytes that was there.
func (ix *index) replace(at int, ref uint32, size int) {
	p := ix.ref(at)
	ix.recs.release(*p&^refBit, size)
	*p = ref | *p&refBit
}

// insert adds ref (from recs.alloc, its record written), the record of a
// key of slotHash h that the index lacks. The key starts referenced, as at
// the head of an LRU list: wherever the hand is, it gets a lap to be read
// again.
func (ix *index) insert(h, ref uint32) {
	ix.n++
	if ix.n*8 > len(ix.meta)*7 {
		ix.resize(grown(len(ix.meta)))
	}
	for ix.place(h, ref|refBit) < 0 {
		// No slot within reach at this length. A longer table spreads the
		// homes apart, unless this one has a whole reach for a tail and the
		// longer one would be one that remove shrinks again: then this one is
		// sparse already, the keys in the way share their hash, and no length
		// tells them apart.
		size := grown(len(ix.meta))
		if len(ix.meta) >= 2*maxTail && ix.n*16 < size*9 {
			ix.setSpill(append(ix.spill, ref|refBit))
			return
		}
		ix.resize(size)
	}
}

// grown is the length a table of size slots grows to: a quarter more.
func grown(size int) int { return tableLen(max(minSlots, size+size/4)) }

// place puts the ref word of an entry of hash h in the table, behind every
// entry whose home is not past its own, and moves the rest of the run one
// slot on. It returns the slot, or -1, with nothing moved, if that would
// take the entry or one it moves past its reach or into the last slot. The
// hand moves with the run if it is in it.
func (ix *index) place(h, ref uint32) int {
	home := ix.home(h)
	i := home
	for m := ix.meta[i]; m != 0 && away(i, m) >= i-home; m = ix.meta[i] {
		i++
	}
	end := i
	for m := ix.meta[end]; m != 0; m = ix.meta[end] {
		if away(end, m) == reach {
			return -1
		}
		end++
	}
	if i-home > reach || end == len(ix.meta)-1 {
		return -1
	}
	copy(ix.meta[i+1:end+1], ix.meta[i:end])
	copy(ix.refs[i+1:end+1], ix.refs[i:end])
	ix.meta[i], ix.refs[i] = word(h, home), ref
	if i <= ix.hand && ix.hand <= end {
		ix.hand++ // with the entry it was on; the new one is behind it, a lap away
	}
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

// resize rebuilds the table at size slots (0 drops it). A probe word keeps
// 15 bits of a hash, so every entry is hashed again from its record's key:
// what a slot that does not carry 32 costs, 3.5 to 4.7 times per inserted
// key while a population grows and nothing at a steady one. Where size is
// too short to spill from and does not hold everything, the table ends up
// the next length longer.
func (ix *index) resize(size int) {
	meta, refs, spill, hand := ix.meta, ix.refs, ix.spill, ix.hand
	ix.meta, ix.refs, ix.spill, ix.homes, ix.hand, ix.charge = nil, nil, nil, 0, 0, 0
	if size == 0 {
		return
	}
	ix.meta, ix.refs = make([]uint16, size), make([]uint32, size)
	ix.homes = uint32(size - min(maxTail, size/2))
	ix.charge = allocBytes(2*size) + allocBytes(4*size)
	// Both tables are in hash order, so entries land nearly in the order
	// they are read, and the hand goes with the first one it had not passed:
	// a resize neither skips a stretch of keys nor gives one a second pass.
	ix.hand = -1
	carry := func(from int, key []byte, ref uint32) {
		at := ix.place(slotHash(fnv1a(key)), ref)
		if at < 0 {
			ix.setSpill(append(ix.spill, ref))
			at = ix.positions() - 1
		}
		if ix.hand < 0 && from >= hand {
			ix.hand = at
		}
	}
	keyOf := func(ref uint32) []byte { return record(ix.recs.at(ref &^ refBit)).key() }
	// The keys of a stretch of entries first, then their hashes: finding a
	// key is a cache miss in a slab that has outgrown the cache, and misses
	// with nothing but one another in the way are served side by side.
	var keys [32][]byte
	for lo := 0; lo < len(meta); lo += len(keys) {
		hi := min(lo+len(keys), len(meta))
		for i := lo; i < hi; i++ {
			if meta[i] != 0 {
				keys[i-lo] = keyOf(refs[i])
			}
		}
		for i := lo; i < hi; i++ {
			if meta[i] != 0 {
				carry(i, keys[i-lo], refs[i])
			}
		}
	}
	for k, ref := range spill {
		carry(len(meta)+k, keyOf(ref), ref)
	}
	if ix.hand < 0 {
		ix.hand = 0 // it was past the last entry: the next lap
	}
	// A table under two reaches long has less than one for a tail, and what
	// it could not place ran into its end, not out of reach: honest keys,
	// which the next length up has room for.
	if ix.spill != nil && size < 2*maxTail {
		ix.resize(grown(size))
	}
}

// remove frees the record of size bytes of the entry at position at, closes
// the gap and lets the table shrink.
func (ix *index) remove(at, size int) {
	ix.removeAt(at, size)
	if ix.n == 0 {
		ix.resize(0)
	} else if ix.n*16 < len(ix.meta)*9 {
		if shrunk := tableLen(max(minSlots, len(ix.meta)*4/5)); shrunk < len(ix.meta) {
			ix.resize(shrunk)
		}
	}
}

// removeAt frees the record of size bytes of the entry at position at and
// closes the gap: the rest of its run, up to the first entry that sits at
// its home, moves one slot back. In the spill the last entry fills the gap.
func (ix *index) removeAt(at, size int) {
	ix.recs.release(*ix.ref(at)&^refBit, size)
	ix.n--
	if k := at - len(ix.meta); k >= 0 {
		last := len(ix.spill) - 1
		ix.spill[k] = ix.spill[last]
		ix.setSpill(ix.spill[:last])
		return
	}
	end := at + 1
	for m := ix.meta[end]; m != 0 && away(end, m) != 0; m = ix.meta[end] {
		end++
	}
	copy(ix.meta[at:], ix.meta[at+1:end])
	copy(ix.refs[at:], ix.refs[at+1:end])
	ix.meta[end-1], ix.refs[end-1] = 0, 0
	if at < ix.hand && ix.hand < end {
		ix.hand-- // with the entry it was on
	}
}

// positions is one past the last position an entry can have.
func (ix *index) positions() int { return len(ix.meta) + len(ix.spill) }

// used reports whether position at holds an entry.
func (ix *index) used(at int) bool { return at >= len(ix.meta) || ix.meta[at] != 0 }

// each calls fn for every record until it returns false.
func (ix *index) each(fn func(rec record) bool) {
	for at := 0; at < ix.positions(); at++ {
		if ix.used(at) && !fn(ix.record(at)) {
			return
		}
	}
}

// scan calls fn for up to *limit records (it counts them off), from where
// pos points towards the last position. It returns where the next scan
// should resume and whether the positions ran out. pos is not a position
// but a 32-bit fraction of the way through them, which survives a resize
// between two scans as a position would not: the table is in hash order at
// every length. What is in the spill goes with the table's last stretch.
func (ix *index) scan(pos uint32, limit *int, fn func(rec record)) (next uint32, end bool) {
	size := uint64(len(ix.meta))
	if size == 0 {
		return 0, true
	}
	at := int(uint64(pos) * size >> 32)
	for ; at < int(size) && *limit > 0; at++ {
		if ix.meta[at] != 0 {
			*limit--
			fn(ix.record(at))
		}
	}
	if at < int(size) {
		return uint32((uint64(at)<<32 + size - 1) / size), false
	}
	for k := range ix.spill {
		*limit--
		fn(ix.record(at + k))
	}
	return 0, true
}

// clock advances the hand towards the last position, looking at up to *look
// entries (it counts them off). One with its reference bit set loses the
// bit, without its record being read, and is due a second look a lap from
// here, so *look becomes lap. Only an unmarked one has its record parsed: if
// pinned (nil: none is) holds its key it is passed over, and otherwise it is
// the victim, whose position and parsed record clock returns with the hand
// left on it, so that after the caller's remove the hand is on whatever
// shifted in. With no victim it returns -1, and end tells whether it was the
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
		if f := record(ix.recs.at(*p)).parse(); pinned == nil || !pinned(f.key) {
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
