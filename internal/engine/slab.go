package engine

import "encoding/binary"

// Slab geometry. All of it is constants, not options: see README.md for
// the arithmetic behind each.
const (
	// pageBytes is one slab page: a Go size class of its own (no rounding
	// loss), small enough that 16 stripes' partly carved head pages are 2-4%
	// of a 100k-key engine, large enough that a page holds hundreds of
	// records.
	pageBytes = 16 << 10
	// minSlot is the smallest slot. A record's slot is the record, byte for
	// byte, except that a freed slot must hold the 4-byte free-list link.
	minSlot = 4
	// slabLimit is the largest slot a page serves. Past it a record is its
	// own allocation, where the allocator's rounding is under 13%.
	slabLimit = 1 << 10

	pageBits = 14                   // log2(pageBytes)
	maxPages = 1<<(30-pageBits) - 1 // page refs stay below bareRef (index.go), which no slab ref sets
	ownTag   = 1 << 31              // ref of an own allocation: ownTag | index into slab.own

	// ownEntryBytes is what an own allocation costs beside its bytes: its
	// slice header in slab.own.
	ownEntryBytes = 24
)

// slab is a stripe's record storage. Records up to slabLimit take a slot
// in a pointer-free page, found by bumping the head page or by popping
// the free list of the slot's size (one list per size, threaded through
// the freed slots' first four bytes); larger ones, and any past the page
// address space, are allocations of their own in a side table. A slot
// never moves and a page is never compacted; every page goes back to the
// heap when the last slot in the stripe is freed.
//
// A ref names a slot in 31 bits (bit 30 stays clear) and is never 0: 1 +
// page<<pageBits + offset, or ownTag | index. Not safe for concurrent use:
// the stripe lock guards it.
type slab struct {
	pages [][]byte
	head  int                   // bytes carved from the last page
	free  [slabLimit + 1]uint32 // by slot size: first free slot, 0 = none
	live  int64                 // bytes in live page slots

	own      [][]byte // own allocations by index; nil = vacant
	ownFree  []uint32 // vacant indexes of own
	ownBytes int64    // allocated bytes behind own, ownEntryBytes each included
}

// slotSize is the page bytes an n-byte record occupies.
func slotSize(n int) int { return max(minSlot, n) }

// held is the bytes live records occupy: their slots and own allocations.
func (sl *slab) held() int64 { return sl.live + sl.ownBytes }

// idle is the page bytes no live record occupies: free-list slots, the
// head page's uncarved tail, and the tails under minSlot bytes of pages
// before it.
func (sl *slab) idle() int64 { return int64(len(sl.pages))*pageBytes - sl.live }

// at returns the storage ref names, from the record's first byte on. For a
// page slot it runs to the end of the page, not of the record.
func (sl *slab) at(ref uint32) []byte {
	if ref&ownTag != 0 {
		return sl.own[ref&^ownTag]
	}
	ref--
	return sl.pages[ref>>pageBits][ref&(pageBytes-1):]
}

// alloc returns a slot for an n-byte record (n > 0) and its n bytes.
func (sl *slab) alloc(n int) (ref uint32, buf []byte) {
	size := slotSize(n)
	if size > slabLimit {
		return sl.allocOwn(n)
	}
	if ref = sl.free[size]; ref != 0 {
		buf = sl.at(ref)
		sl.free[size] = binary.LittleEndian.Uint32(buf)
	} else {
		if len(sl.pages) == 0 || sl.head+size > pageBytes {
			if len(sl.pages) == maxPages {
				return sl.allocOwn(n)
			}
			sl.newPage()
		}
		ref = sl.headRef()
		buf = sl.at(ref)
		sl.head += size
	}
	sl.live += int64(size)
	return ref, buf[:n]
}

// headRef names the next slot the head page would carve.
func (sl *slab) headRef() uint32 {
	return 1 + uint32(len(sl.pages)-1)<<pageBits + uint32(sl.head)
}

// newPage starts a fresh head page. What is left of the old one, too small
// for the record at hand, goes on the free list of its size, or stays
// idle for good if it is too small for a slot.
func (sl *slab) newPage() {
	if tail := pageBytes - sl.head; len(sl.pages) > 0 && tail >= minSlot {
		sl.push(sl.headRef(), tail)
	}
	sl.pages = append(sl.pages, make([]byte, pageBytes))
	sl.head = 0
}

// push links the size-byte slot at ref into its free list.
func (sl *slab) push(ref uint32, size int) {
	binary.LittleEndian.PutUint32(sl.at(ref), sl.free[size])
	sl.free[size] = ref
}

func (sl *slab) allocOwn(n int) (ref uint32, buf []byte) {
	buf = make([]byte, n)
	sl.ownBytes += allocBytes(n) + ownEntryBytes
	if last := len(sl.ownFree) - 1; last >= 0 {
		i := sl.ownFree[last]
		sl.ownFree = sl.ownFree[:last]
		sl.own[i] = buf
		return ownTag | i, buf
	}
	if len(sl.own) == bareRef {
		// 2^30 live own allocations in one stripe: 24 GiB of slice headers.
		panic("engine: stripe record address space exhausted")
	}
	sl.own = append(sl.own, buf)
	return ownTag | uint32(len(sl.own)-1), buf
}

// release frees the slot at ref, which holds an n-byte record. The pages
// go back to the heap with the last page slot, the side table with the
// last own allocation.
func (sl *slab) release(ref uint32, n int) {
	if ref&ownTag != 0 {
		i := ref &^ ownTag
		sl.own[i] = nil
		sl.ownFree = append(sl.ownFree, i)
		if sl.ownBytes -= allocBytes(n) + ownEntryBytes; sl.ownBytes == 0 {
			sl.own, sl.ownFree = nil, nil
		}
		return
	}
	size := slotSize(n)
	sl.push(ref, size)
	if sl.live -= int64(size); sl.live == 0 {
		sl.pages, sl.head, sl.free = nil, 0, [len(sl.free)]uint32{}
	}
}
