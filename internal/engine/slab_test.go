package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// freeSlots walks the slab's free lists and returns every slot on them as
// a span of absolute page bytes, or an error for a link that leaves the
// pages or loops.
func freeSlots(sl *slab) (spans [][2]int64, err error) {
	limit := len(sl.pages) * pageBytes / minSlot
	for c, ref := range sl.free {
		for ; ref != 0; ref = binary.LittleEndian.Uint32(sl.at(ref)) {
			if ref&ownTag != 0 || int(ref-1)>>pageBits >= len(sl.pages) {
				return nil, fmt.Errorf("free list %d links to %#x, outside %d pages", c, ref, len(sl.pages))
			}
			start := int64(ref - 1)
			spans = append(spans, [2]int64{start, start + int64(c)})
			if len(spans) > limit {
				return nil, fmt.Errorf("free list %d loops", c)
			}
		}
	}
	return spans, nil
}

// checkSlab verifies the slab's books: live + free-list + head-tail bytes
// are the page bytes but for the tails too small for a slot that retired
// pages keep (under minSlot bytes each), idle() is everything but live, no
// free slot crosses a page or overlaps another, ownBytes is what the side
// table holds and ownFree is its vacancies.
func checkSlab(sl *slab) error {
	_, err := checkSlabDead(sl)
	return err
}

// checkSlabDead is checkSlab, and returns the bytes in those tails.
func checkSlabDead(sl *slab) (dead int64, err error) {
	fail := func(format string, args ...any) (int64, error) { return 0, fmt.Errorf(format, args...) }
	spans, err := freeSlots(sl)
	if err != nil {
		return 0, err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	var free int64
	for i, sp := range spans {
		free += sp[1] - sp[0]
		if sp[0]/pageBytes != (sp[1]-1)/pageBytes {
			return fail("free slot %v crosses a page", sp)
		}
		if i > 0 && sp[0] < spans[i-1][1] {
			return fail("free slots %v and %v overlap", spans[i-1], sp)
		}
	}
	var tail int64
	if len(sl.pages) > 0 {
		tail = int64(pageBytes - sl.head)
	}
	total := int64(len(sl.pages)) * pageBytes
	dead = total - sl.live - free - tail
	if dead < 0 || dead > int64(max(0, len(sl.pages)-1))*(minSlot-1) {
		return fail("live %d + free %d + head tail %d leave %d of %d bytes in %d pages unaccounted for",
			sl.live, free, tail, dead, total, len(sl.pages))
	}
	if sl.idle() != total-sl.live {
		return fail("idle() = %d, %d page bytes hold no live slot", sl.idle(), total-sl.live)
	}
	if sl.live == 0 && len(sl.pages) != 0 {
		return fail("%d pages kept with no live slot", len(sl.pages))
	}
	var own int64
	vacant := 0
	for _, b := range sl.own {
		if b == nil {
			vacant++
		} else {
			own += allocBytes(len(b)) + ownEntryBytes
		}
	}
	if own != sl.ownBytes || vacant != len(sl.ownFree) {
		return fail("side table holds %d bytes and %d vacancies, books say %d and %d",
			own, vacant, sl.ownBytes, len(sl.ownFree))
	}
	return dead, nil
}

// slabModel drives a slab next to a model of what it should hold.
type slabModel struct {
	t    testing.TB
	sl   slab
	refs []uint32          // live refs, in no particular order
	want map[uint32][]byte // ref -> the bytes written there
	// stack mirrors the free lists: by slot size, the refs a release or a
	// retired page tail put there, last in first out.
	stack [slabLimit + 1][]uint32
	dead  int64 // bytes in retired page tails too small for a slot
	fill  byte
}

func newSlabModel(t testing.TB) *slabModel {
	return &slabModel{t: t, want: map[uint32][]byte{}}
}

// alloc takes a slot for n bytes, checks that it is the one the model
// predicts when a free slot of its size exists, and fills it.
func (m *slabModel) alloc(n int) uint32 {
	m.t.Helper()
	sl := &m.sl
	size := slotSize(n)
	var expect uint32
	if size <= slabLimit {
		st := &m.stack[size]
		if last := len(*st) - 1; last >= 0 {
			expect = (*st)[last]
			*st = (*st)[:last]
		} else if tail := pageBytes - sl.head; len(sl.pages) > 0 && sl.head+size > pageBytes && len(sl.pages) < maxPages {
			if tail >= minSlot {
				m.stack[tail] = append(m.stack[tail], sl.headRef())
			} else {
				m.dead += int64(tail)
			}
		}
	}
	ref, buf := sl.alloc(n)
	switch {
	case ref == 0 || len(buf) != n:
		m.t.Fatalf("alloc(%d) = ref %#x, %d bytes", n, ref, len(buf))
	case expect != 0 && ref != expect:
		m.t.Fatalf("alloc(%d) = %#x, want the last freed slot of its size, %#x", n, ref, expect)
	case (size > slabLimit) != (ref&ownTag != 0):
		m.t.Fatalf("alloc(%d) = %#x: wrong side of the slab limit", n, ref)
	case m.want[ref] != nil:
		m.t.Fatalf("alloc(%d) = %#x, which is live", n, ref)
	}
	m.fill++
	for i := range buf {
		buf[i] = m.fill + byte(i)
	}
	m.want[ref] = append([]byte{}, buf...)
	m.refs = append(m.refs, ref)
	return ref
}

// free releases the i-th live slot after checking its bytes.
func (m *slabModel) free(i int) {
	m.t.Helper()
	ref := m.refs[i]
	want := m.want[ref]
	if got := m.sl.at(ref)[:len(want)]; !bytes.Equal(got, want) {
		m.t.Fatalf("slot %#x changed while live", ref)
	}
	m.sl.release(ref, len(want))
	if ref&ownTag == 0 {
		c := slotSize(len(want))
		m.stack[c] = append(m.stack[c], ref)
	}
	if m.sl.live == 0 {
		m.stack, m.dead = [len(m.stack)][]uint32{}, 0
	}
	delete(m.want, ref)
	m.refs[i] = m.refs[len(m.refs)-1]
	m.refs = m.refs[:len(m.refs)-1]
}

// realloc moves the i-th live slot's record to a slot for n bytes, the
// way ExpireAt re-slots one: allocate, copy, release.
func (m *slabModel) realloc(i, n int) {
	m.t.Helper()
	old := m.refs[i]
	keep := append([]byte{}, m.want[old]...)
	ref := m.alloc(n)
	if got := m.sl.at(old)[:len(keep)]; !bytes.Equal(got, keep) {
		m.t.Fatalf("alloc(%d) = %#x wrote over live slot %#x", n, ref, old)
	}
	m.free(i)
}

// check verifies every live slot's bytes, that no two live page slots
// overlap each other or a free one, and the slab's books.
func (m *slabModel) check() {
	m.t.Helper()
	spans, err := freeSlots(&m.sl)
	if err != nil {
		m.t.Fatal(err)
	}
	for ref, want := range m.want {
		if got := m.sl.at(ref)[:len(want)]; !bytes.Equal(got, want) {
			m.t.Fatalf("slot %#x does not read back its %d bytes", ref, len(want))
		}
		if ref&ownTag == 0 {
			start := int64(ref - 1)
			spans = append(spans, [2]int64{start, start + int64(slotSize(len(want)))})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			m.t.Fatalf("slots %v and %v overlap", spans[i-1], spans[i])
		}
	}
	if dead, err := checkSlabDead(&m.sl); err != nil {
		m.t.Fatal(err)
	} else if dead != m.dead {
		m.t.Fatalf("%d bytes in retired page tails, want %d", dead, m.dead)
	}
}

// drain frees everything and checks the slab is back to nothing.
func (m *slabModel) drain() {
	m.t.Helper()
	for len(m.refs) > 0 {
		m.free(len(m.refs) - 1)
	}
	m.check()
	if sl := &m.sl; len(sl.pages) != 0 || len(sl.own) != 0 || sl.held() != 0 || sl.idle() != 0 {
		m.t.Fatalf("drained slab keeps %d pages, %d own allocations, %d held and %d idle bytes",
			len(sl.pages), len(sl.own), sl.held(), sl.idle())
	}
}

// TestSlabAgainstModel drives the allocator alone with a seeded stream of
// allocations, frees and re-slots over sizes from 1 B to 8 KiB, through
// phases that grow the population to thousands of slots and shrink it
// back to none.
func TestSlabAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newSlabModel(t)
		size := func() int {
			switch rng.Intn(10) {
			case 0:
				return 1 + rng.Intn(8<<10) // anywhere, own allocations included
			case 1, 2:
				return 1 + rng.Intn(slabLimit)
			default:
				return 1 + rng.Intn(96) // the ledger's record sizes
			}
		}
		for _, phase := range []struct{ steps, allocPct int }{{6000, 70}, {6000, 35}, {3000, 50}, {8000, 20}} {
			for i := 0; i < phase.steps; i++ {
				switch r := rng.Intn(100); {
				case len(m.refs) == 0 || r < phase.allocPct:
					m.alloc(size())
				case r < phase.allocPct+10:
					m.realloc(rng.Intn(len(m.refs)), size())
				default:
					m.free(rng.Intn(len(m.refs)))
				}
				if i%500 == 499 {
					m.check()
				}
			}
		}
		m.drain()
	}
}

// TestSlabPageTails: a record's slot is the record, so a page fills to any
// byte. What is left when the next record does not fit goes on the free
// list of its size if it can hold a free-list link, and otherwise stays
// idle until the stripe empties; idle() counts it either way.
func TestSlabPageTails(t *testing.T) {
	for tail := 0; tail <= minSlot+1; tail++ {
		m := newSlabModel(t)
		for i := 0; i < 16; i++ {
			m.alloc(1023)
		}
		m.alloc(16 - tail) // the page now ends tail bytes short
		if got := pageBytes - m.sl.head; got != tail {
			t.Fatalf("head page has %d bytes left, want %d", got, tail)
		}
		m.alloc(40)
		m.check()
		wantDead, wantFree := int64(0), uint32(0)
		if tail > 0 && tail < minSlot {
			wantDead = int64(tail)
		} else if tail >= minSlot {
			wantFree = 1 + pageBytes - uint32(tail)
		}
		if m.dead != wantDead || len(m.sl.pages) != 2 {
			t.Fatalf("tail %d: %d bytes idle for good in %d pages, want %d in 2", tail, m.dead, len(m.sl.pages), wantDead)
		}
		if tail >= minSlot && m.sl.free[tail] != wantFree {
			t.Fatalf("tail %d: free list holds %#x, want the tail at %#x", tail, m.sl.free[tail], wantFree)
		}
		if got, want := m.sl.idle(), int64(tail)+pageBytes-40; got != want {
			t.Fatalf("tail %d: idle() = %d, want %d", tail, got, want)
		}
		if tail >= minSlot { // and a record of that size takes it
			if ref := m.alloc(tail); ref != wantFree {
				t.Fatalf("alloc(%d) = %#x, want the retired tail %#x", tail, ref, wantFree)
			}
		}
		m.alloc(1) // the smallest record still takes a whole minSlot
		wantLive := int64(16*1023 + 16 - tail + 40 + minSlot)
		if tail >= minSlot {
			wantLive += int64(tail)
		}
		if m.sl.live != wantLive {
			t.Fatalf("tail %d: live = %d, want %d", tail, m.sl.live, wantLive)
		}
		m.drain()
	}
}

// FuzzSlab reads the same three operations off the fuzzer's bytes: two
// bytes of size (1 B to 8 KiB, the low values most often) and one that
// picks the operation and its victim.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{40, 0, 0, 40, 0, 0, 0, 0, 200, 48, 0, 0})                   // free, then reuse another size
	f.Add(bytes.Repeat([]byte{0xFF, 0x03, 0}, 40))                           // 1 KiB slots across pages
	f.Add(bytes.Repeat([]byte{0x01, 0x04, 0, 0x01, 0x04, 200}, 8))           // own allocations come and go
	f.Add(bytes.Repeat([]byte{0xF8, 0x03, 0, 0x10, 0, 0, 0x10, 0, 100}, 30)) // page tails retired to the free lists
	for tail := byte(1); tail <= minSlot; tail++ {                           // a page that ends 1 to 4 B short: the tail stays idle, or is the smallest slot
		ops := bytes.Repeat([]byte{0xFE, 0x03, 0}, 16)      // 16 x 1023 B
		ops = append(ops, 15-tail, 0, 0, 39, 0, 0, 2, 0, 0) // 16 - tail B, then 40 B onto a new page, then 3 B
		f.Add(append(ops, bytes.Repeat([]byte{0, 0, 200}, 19)...))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newSlabModel(t)
		for ; len(ops) >= 3; ops = ops[3:] {
			n := 1 + int(binary.LittleEndian.Uint16(ops))%(8<<10)
			switch op := int(ops[2]); {
			case len(m.refs) == 0 || op < 128:
				m.alloc(n)
			case op < 160:
				m.realloc(op%len(m.refs), n)
			default:
				m.free(op % len(m.refs))
			}
		}
		m.check()
		m.drain()
	})
}
