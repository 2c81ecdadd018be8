package engine

import (
	"reflect"
	"sync/atomic"
)

// slot is one index entry: 8 bytes and no pointer, so the garbage collector
// never looks inside a table. An empty slot has ref 0.
//
// hash is the one word of a stripe that changes under the read lock: a hit
// sets refBit in it (touch). Readers therefore load it atomically; whoever
// holds the write lock has the table to itself and reads and writes it
// plainly. (It is not an atomic.Uint32 because slots are copied when
// entries shift and tables grow.)
type slot struct {
	hash uint32 // slotHash of the key, and refBit; the home slot is hash >> shift
	ref  uint32 // where the record is (slab.at)
}

const (
	slotBytes = 8
	minSlots  = 8

	// refBit in slot.hash says the key was read or written since the clock
	// hand last passed it. slotHash leaves the bit clear: the home slot is
	// the hash's high bits, and the low bits of kh chose the stripe, so
	// bit 0 of the product told one key of a stripe from another only in a
	// one-stripe engine, where 31 bits of tag before the key compare are
	// plenty.
	refBit = 1
)

// itemBytes is the allocation behind a collection's *item.
var itemBytes = int(reflect.TypeOf(item{}).Size())

// index is an open-addressing hash table (linear probing, backward-shift
// deletion, so no tombstones) from key to string record, and the slab the
// records live in. It holds no table while empty, doubles when an insert
// would pass 7/8 full and halves when a delete leaves it under 7/32, so a
// steady population sits between 7/16 and 7/8. Not safe for concurrent
// use: the stripe lock guards it.
type index struct {
	slots []slot // nil or a power-of-two length
	n     int
	shift uint8  // 32 - log2(len(slots))
	hand  uint32 // the clock hand, as a hash: over slot hand >> shift in a table of any size
	recs  slab
}

// slotHash spreads the key hash for the index. The stripe was picked from
// the low bits of kh, which are therefore equal across one index; a
// Fibonacci multiply folds every bit into the high ones the index uses.
func slotHash(kh uint32) uint32 { return kh * 0x9E3779B1 &^ refBit }

// held is the bytes the index charges its stripe: the slot table at its
// capacity and every record's slot or own allocation.
func (ix *index) held() int64 { return int64(len(ix.slots))*slotBytes + ix.recs.held() }

// record returns the record in slot i.
func (ix *index) record(i int) record { return ix.recs.at(ix.slots[i].ref) }

// find returns the position of key, or -1.
func (ix *index) find(h uint32, key string) int {
	if ix.n == 0 {
		return -1
	}
	mask := uint32(len(ix.slots) - 1)
	for i := h >> ix.shift; ; i = (i + 1) & mask {
		sl := &ix.slots[i]
		if sl.ref == 0 {
			return -1
		}
		if atomic.LoadUint32(&sl.hash)&^refBit == h && record(ix.recs.at(sl.ref)).hasKey(key) {
			return int(i)
		}
	}
}

// touch marks the key in slot i referenced. The stripe lock in either mode
// is enough: under the read lock other readers may be setting the same
// bit, which is all that can happen to the word. Test first, because a hot
// key's bit is nearly always set and a load leaves its cache line shared.
func (ix *index) touch(i int) {
	if p := &ix.slots[i].hash; atomic.LoadUint32(p)&refBit == 0 {
		atomic.OrUint32(p, refBit)
	}
}

// replace makes ref (from recs.alloc, its record written) the record in
// slot i, whose key it shares, and frees the one of size bytes that was
// there.
func (ix *index) replace(i int, ref uint32, size int) {
	ix.recs.release(ix.slots[i].ref, size)
	ix.slots[i].ref = ref
}

// insert adds ref (from recs.alloc, its record written), the record of a
// key of slotHash h that the index lacks. The key starts referenced, as at
// the head of an LRU list: wherever the hand is, it gets a lap to be read
// again.
func (ix *index) insert(h, ref uint32) {
	if (ix.n+1)*8 > len(ix.slots)*7 {
		ix.resize(max(minSlots, 2*len(ix.slots)))
	}
	ix.place(slot{hash: h | refBit, ref: ref})
	ix.n++
}

// place stores sl in the first free slot of its probe sequence.
func (ix *index) place(sl slot) {
	mask := uint32(len(ix.slots) - 1)
	i := sl.hash >> ix.shift
	for ix.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = sl
}

// resize rehashes into a table of size slots (0 drops the table).
func (ix *index) resize(size int) {
	old := ix.slots
	ix.slots = nil
	if size > 0 {
		ix.slots = make([]slot, size)
		ix.shift = 32
		for s := size; s > 1; s >>= 1 {
			ix.shift--
		}
	}
	for _, sl := range old {
		if sl.ref != 0 {
			ix.place(sl)
		}
	}
}

// remove frees the record of size bytes in slot i, closes the gap and lets
// the table shrink.
func (ix *index) remove(i, size int) {
	ix.removeAt(uint32(i), size)
	ix.shrink()
}

// removeAt frees the record of size bytes in slot i, empties the slot and
// closes the gap: each later entry of the run moves back into the hole
// unless that would put it before its home.
func (ix *index) removeAt(i uint32, size int) {
	ix.recs.release(ix.slots[i].ref, size)
	mask := uint32(len(ix.slots) - 1)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		sl := ix.slots[j]
		if sl.ref == 0 {
			break
		}
		if home := sl.hash >> ix.shift; (j-home)&mask >= (j-i)&mask {
			ix.slots[i] = sl
			i = j
		}
	}
	ix.slots[i] = slot{}
	ix.n--
}

// shrink halves the table while it is under 7/32 full and drops it when
// the last record goes.
func (ix *index) shrink() {
	size := len(ix.slots)
	for size > minSlots && ix.n*32 < size*7 {
		size /= 2
	}
	if ix.n == 0 {
		size = 0
	}
	if size != len(ix.slots) {
		ix.resize(size)
	}
}

// each calls fn for every record until it returns false.
func (ix *index) each(fn func(rec record) bool) {
	for i := range ix.slots {
		if ix.slots[i].ref != 0 && !fn(ix.record(i)) {
			return
		}
	}
}

// scan calls fn for up to *limit records (it counts them off), from the
// slot of hash pos towards the end of the table. It returns where the next
// scan should resume and whether the table ran out; pos is a hash for the
// reason hand is.
func (ix *index) scan(pos uint32, limit *int, fn func(rec record)) (next uint32, end bool) {
	if len(ix.slots) == 0 {
		return 0, true
	}
	i := int(pos >> ix.shift)
	for ; i < len(ix.slots) && *limit > 0; i++ {
		if ix.slots[i].ref != 0 {
			*limit--
			fn(ix.record(i))
		}
	}
	if i == len(ix.slots) {
		return 0, true
	}
	return uint32(i) << ix.shift, false
}

// clock advances the hand towards the end of the table, looking at up to
// *look slots in use (it counts them off). One with its reference bit set
// loses the bit, without its record being read, and is due a second look a
// lap from here, so *look becomes lap. Only an unmarked one has its record
// parsed: if pinned (nil: none is) holds its key it is passed over, and
// otherwise it is the victim, whose slot and parsed record clock returns
// with the hand left on it, so that after the caller's remove the hand is
// on whatever shifted in. With no victim it returns -1, and end tells
// whether it was the table that ran out (the hand is back at slot 0) or
// *look.
//
// The hand is kept as a hash: the table is in hash order but for probe
// runs, so a resize neither skips a stretch of keys nor gives one a second
// pass.
func (ix *index) clock(look *int, lap int, pinned func(key []byte) bool) (at int, victim fields, end bool) {
	if len(ix.slots) == 0 {
		return -1, fields{}, true
	}
	i := int(ix.hand >> ix.shift)
	for ; i < len(ix.slots) && *look > 0; i++ {
		sl := &ix.slots[i]
		if sl.ref == 0 {
			continue
		}
		*look--
		if sl.hash&refBit != 0 {
			sl.hash &^= refBit
			*look = lap
			continue
		}
		if f := ix.record(i).parse(); pinned == nil || !pinned(f.key) {
			ix.hand = uint32(i) << ix.shift
			return i, f, false
		}
	}
	end = i == len(ix.slots)
	if end {
		i = 0
	}
	ix.hand = uint32(i) << ix.shift
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
