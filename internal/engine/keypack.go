package engine

import (
	"math/bits"
	"slices"
)

// A key is stored in its record packed under its stripe's key model: each
// maximal run of ASCII digits, cut into pieces of at most maxRun digits
// from its start, is written, wherever that is shorter than the digits, as
//
//	modelMark | len(piece)<<3 + the value's top 3 bits | the rest, big-endian, in the model's width for len(piece)
//
// when the value fits that width, and otherwise in its full form,
//
//	packMark | len(piece)<<3 + the value's top 3 bits | the rest, big-endian, in runBytes[len(piece)]-1 bytes
//
// A literal 0xFF byte is written packMark 0 and a literal 0xFE packMark 1.
// Every other byte, and every piece neither form would shorten, is written
// as it is. The mark says which width a piece takes, so the packed bytes
// alone tell the two forms apart: record byte 0 has no bit to spare.
//
// A model (keyModel) starts at width 0 for every digit count (a value
// below 8) and only ever widens, in an index rebuild that runs in one lock
// hold (index.remodel): a stripe's model is fixed once its table is
// spreadFrom slots long. Keys that fit it and differ only in their digits
// pack to one length, so their records are one size and reuse one
// another's slab slots (slots are exact, and a freed slot goes only to a
// record of its size). Under the model {15: 2} that a stripe of the
// ledger's keys learns, "k000000000123456" (16 bytes) is 'k' FE 79 E2 40 (5
// bytes); past 524 287 a 15-digit value takes its full form, 'k' FF 78 and
// 6 bytes (9). Since unpack inverts pack, two keys pack equal under one
// model only if they are equal.
//
// The index compares packed keys, but hashes keys as written: the slot hash
// and the stripe come from one fnv1a of the key (probe), and a resize
// hashes a record's key unpacked, on the stack (keyModel.hash). So a
// re-pack moves no entry. Everything outside the engine sees the key as
// written; a key leaves a record through unpack: the clock's pinned call,
// CollectExpired and ForEachEncodedChunked's key listing.
const (
	packMark  = 0xFF
	modelMark = 0xFE
	maxRun    = 19 // the most digits a uint64 always holds
)

// runBytes[n] is what a piece of n digits takes after packMark: its length
// and the top 3 bits of its value in one byte, then the rest of the largest
// n-digit value's bits in whole bytes.
var runBytes = func() (w [maxRun + 1]int) {
	top := uint64(0)
	for n := 1; n <= maxRun; n++ {
		top = top*10 + 9
		w[n] = 1 + width(top)
	}
	return w
}()

// width is the fewest whole bytes that hold v beside the 3 bits of the
// byte that holds a piece's length.
func width(v uint64) int { return (max(bits.Len64(v)-3, 0) + 7) / 8 }

// keyModel is the width, in bytes after the length byte, that a stripe
// gives a piece of each digit count, at most runBytes[n]-1.
type keyModel [maxRun + 1]uint8

// keyBuf is room on a caller's stack for a key, packed or not: one that
// takes more than this goes to the heap.
type keyBuf [128]byte

// appendPacked appends the packed form of key under m to dst. It writes
// into room for two bytes a byte of key, the most any byte packs to, which
// a caller's buffer of that much spares it from allocating.
func appendPacked[K string | []byte](m *keyModel, dst []byte, key K) []byte {
	dst = slices.Grow(dst, 2*len(key))
	o := len(dst)
	dst = dst[:cap(dst)]
	for i := 0; i < len(key); {
		if c := key[i]; c-'0' > 9 {
			if c >= modelMark {
				dst[o], dst[o+1] = packMark, packMark-c
				o += 2
			} else {
				dst[o] = c
				o++
			}
			i++
			continue
		}
		j := i
		var v uint64
		for ; j < len(key) && j-i < maxRun && key[j]-'0' <= 9; j++ {
			v = v*10 + uint64(key[j]-'0')
		}
		n := j - i
		mark, w := byte(modelMark), int(m[n])
		if v>>(3+8*w) != 0 {
			mark, w = packMark, runBytes[n]-1
		}
		if 2+w < n {
			dst[o], dst[o+1] = mark, byte(n)<<3|byte(v>>(8*w))
			o += 2
			for k := w - 1; k >= 0; k-- {
				dst[o] = byte(v >> (8 * k))
				o++
			}
		} else {
			o += copy(dst[o:], key[i:j])
		}
		i = j
	}
	return dst[:o]
}

// next decodes what starts at packed[i]: a byte of the key (n = 0), or a
// piece of n digits of value v. j is where the next one starts.
func (m *keyModel) next(packed []byte, i int) (c byte, n int, v uint64, j int) {
	if c = packed[i]; c < modelMark {
		return c, 0, 0, i + 1
	}
	if n = int(packed[i+1] >> 3); n == 0 {
		return packMark - packed[i+1], 0, 0, i + 2
	}
	w := int(m[n])
	if c == packMark {
		w = runBytes[n] - 1
	}
	v = uint64(packed[i+1] & 7)
	for j = i + 2; j < i+2+w; j++ {
		v = v<<8 | uint64(packed[j])
	}
	return 0, n, v, j
}

// appendUnpacked appends the key whose packed form under m is packed to dst.
func (m *keyModel) appendUnpacked(dst, packed []byte) []byte {
	for i := 0; i < len(packed); {
		c, n, v, j := m.next(packed, i)
		i = j
		if n == 0 {
			dst = append(dst, c)
			continue
		}
		// Grown in place, not by append of a make: the compiler turns that
		// into no allocation only when race instrumentation is off.
		dst = slices.Grow(dst, n)[:len(dst)+n]
		for k := len(dst) - 1; k >= len(dst)-n; k-- {
			dst[k] = byte('0' + v%10)
			v /= 10
		}
	}
	return dst
}

// unpackKey is the key whose packed form under m is packed.
func (m *keyModel) unpackKey(packed []byte) string {
	var buf keyBuf
	return string(m.appendUnpacked(buf[:0], packed))
}

// unpackedLen is len(m.unpackKey(packed)) without building the key.
func (m *keyModel) unpackedLen(packed []byte) int {
	size := 0
	for i := 0; i < len(packed); {
		_, n, _, j := m.next(packed, i)
		size += max(n, 1)
		i = j
	}
	return size
}

// hash is fnv1a of the key whose packed form under m is packed: what a
// resize pays a record to learn its slot.
func (m *keyModel) hash(packed []byte) uint32 {
	var buf keyBuf
	return fnv1a(m.appendUnpacked(buf[:0], packed))
}

// widen widens m to hold every digit piece of key, as written, that a
// piece at the width that holds it would shorten.
func (m *keyModel) widen(key []byte) {
	for i := 0; i < len(key); {
		for i < len(key) && key[i]-'0' > 9 {
			i++
		}
		j := i
		var v uint64
		for ; j < len(key) && j-i < maxRun && key[j]-'0' <= 9; j++ {
			v = v*10 + uint64(key[j]-'0')
		}
		if n, w := j-i, width(v); 2+w < n {
			m[n] = max(m[n], uint8(w))
		}
		i = j
	}
}
