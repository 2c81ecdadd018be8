package engine

import (
	"bytes"
	"math/bits"
	"slices"
)

// A key is stored in its record packed under its stripe's key model, which
// is a width for each digit count and one shape: a literal prefix, a piece
// of n digits and a literal suffix. A key of the shape whose piece's value
// fits the shape's size is written as that value alone,
//
//	the value, big-endian, in size bytes
//
// and every other key in its ordinary form: each maximal run of ASCII
// digits, cut into pieces of at most maxRun digits from its start, is
// written, wherever that is shorter than the digits, as
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
// alone tell the two forms apart: record byte 0 has no bit to spare. Under
// a shape, a packed form of exactly size bytes is a key of the shape, so
// an ordinary form of that length is padded: packMark padByte, an empty
// escape, follows it.
//
// A model (keyModel) starts at width 0 for every digit count (a value
// below 8) and no shape, and changes only in an index rebuild that runs in
// one lock hold (index.remodel): a stripe's model is fixed once its table
// is spreadFrom slots long. The widths only widen. The shape is the one
// that more than half the stripe's keys have there, around each key's last
// digit piece, if it packs them shorter than their ordinary forms; its
// size is the width that holds their largest value, plus one byte, and
// only grows while the shape stays. Keys that fit the model and differ
// only in their digits pack to one length, so their records are one size
// and reuse one another's slab slots (slots are exact, and a freed slot
// goes only to a record of its size). Under the model a stripe of the
// ledger's keys learns, the widths {15: 2} and the shape 'k', 15 digits,
// "" in 3 bytes, "k000000000123456" (16 bytes) is 01 E2 40, and every
// ledger key up to 16 777 215 takes 3 bytes. Since unpack inverts pack,
// two keys pack equal under one model only if they are equal.
//
// The index compares packed keys, but hashes keys as written: the slot hash
// and the stripe come from one fnv1a of the key (probe), and a resize
// hashes a record's key unpacked, on the stack (keyModel.hash). So a
// re-pack moves no entry. Everything outside the engine sees the key as
// written; a key leaves a record through unpack: the clock's pinned call,
// CollectExpired and the snapshot walk (ForEachEncoded).
const (
	packMark  = 0xFF
	modelMark = 0xFE
	padByte   = 2  // after packMark: nothing, the pad of an ordinary form a shape's length long
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

// widths is the width, in bytes after the length byte, that a stripe
// gives a piece of each digit count, at most runBytes[n]-1.
type widths [maxRun + 1]uint8

// shape is a form of key: prefix, a piece of n digits, suffix. Its keys
// whose piece's value fits size bytes, at most runBytes[n], pack to that
// value alone. A size of 0 is no shape.
type shape struct {
	prefix, suffix string
	n, size        uint8
}

// keyModel is what a stripe packs its keys under.
type keyModel struct {
	widths
	shape
}

// keyBuf is room on a caller's stack for a key, packed or not: one that
// takes more than this goes to the heap.
type keyBuf [128]byte

// packRoom is the most bytes a key of n bytes packs to: two a byte (a
// literal 0xFE or 0xFF), and the pad.
func packRoom(n int) int { return 2*n + 2 }

// appendPacked appends the packed form of key under m to dst. It writes
// into packRoom(len(key)) bytes of room, which a caller's buffer of that
// much spares it from allocating.
func appendPacked[K string | []byte](m *keyModel, dst []byte, key K) []byte {
	dst = slices.Grow(dst, packRoom(len(key)))
	if v, ok := shapeValue(&m.shape, key); ok {
		for k := int(m.size) - 1; k >= 0; k-- {
			dst = append(dst, byte(v>>(8*k)))
		}
		return dst
	}
	o := len(dst)
	if dst = appendOrdinary(&m.widths, dst, key); m.size != 0 && len(dst)-o == int(m.size) {
		dst = append(dst, packMark, padByte)
	}
	return dst
}

// shapeValue is the value of key's piece, if key is of shape s and the
// value fits its size.
func shapeValue[K string | []byte](s *shape, key K) (v uint64, ok bool) {
	p, end := len(s.prefix), len(key)-len(s.suffix)
	if s.size == 0 || end-p != int(s.n) || string(key[:p]) != s.prefix || string(key[end:]) != s.suffix {
		return 0, false
	}
	for i := p; i < end; i++ {
		d := key[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	return v, v>>(8*int(s.size)) == 0
}

// appendOrdinary appends the ordinary form of key under w to dst. It
// writes into room for two bytes a byte of key, the most any byte packs to.
func appendOrdinary[K string | []byte](w *widths, dst []byte, key K) []byte {
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
		mark, b := byte(modelMark), int(w[n])
		if v>>(3+8*b) != 0 {
			mark, b = packMark, runBytes[n]-1
		}
		if 2+b < n {
			dst[o], dst[o+1] = mark, byte(n)<<3|byte(v>>(8*b))
			o += 2
			for k := b - 1; k >= 0; k-- {
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

// holds reports whether packed is the form of a key of s: whether it is
// exactly s's size long.
func (s *shape) holds(packed []byte) bool { return s.size != 0 && len(packed) == int(s.size) }

// next decodes what starts at packed[i] of an ordinary form, n bytes of
// the key: the pad (n = 0), the byte c (n = 1), or a piece of n digits,
// at least 3, of value v. j is where the next one starts.
func (m *keyModel) next(packed []byte, i int) (c byte, n int, v uint64, j int) {
	if c = packed[i]; c < modelMark {
		return c, 1, 0, i + 1
	}
	if n = int(packed[i+1] >> 3); n == 0 {
		if packed[i+1] == padByte {
			return 0, 0, 0, i + 2
		}
		return packMark - packed[i+1], 1, 0, i + 2
	}
	w := int(m.widths[n])
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
	if m.holds(packed) {
		var v uint64
		for _, b := range packed {
			v = v<<8 | uint64(b)
		}
		dst = appendDigits(append(dst, m.prefix...), int(m.n), v)
		return append(dst, m.suffix...)
	}
	for i := 0; i < len(packed); {
		c, n, v, j := m.next(packed, i)
		i = j
		switch n {
		case 0:
		case 1:
			dst = append(dst, c)
		default:
			dst = appendDigits(dst, n, v)
		}
	}
	return dst
}

// appendDigits appends v in n decimal digits, leading zeros and all.
func appendDigits(dst []byte, n int, v uint64) []byte {
	// Grown in place, not by append of a make: the compiler turns that into
	// no allocation only when race instrumentation is off.
	dst = slices.Grow(dst, n)[:len(dst)+n]
	for k := len(dst) - 1; k >= len(dst)-n; k-- {
		dst[k] = byte('0' + v%10)
		v /= 10
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
	if m.holds(packed) {
		return len(m.prefix) + int(m.n) + len(m.suffix)
	}
	size := 0
	for i := 0; i < len(packed); {
		_, n, _, j := m.next(packed, i)
		size += n
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

// widen widens w to hold every digit piece of key, as written, that a
// piece at the width that holds it would shorten.
func (w *widths) widen(key []byte) {
	for i := 0; i < len(key); {
		for i < len(key) && key[i]-'0' > 9 {
			i++
		}
		j := i
		var v uint64
		for ; j < len(key) && j-i < maxRun && key[j]-'0' <= 9; j++ {
			v = v*10 + uint64(key[j]-'0')
		}
		if n, b := j-i, width(v); 2+b < n {
			w[n] = max(w[n], uint8(b))
		}
		i = j
	}
}

// lastPiece is where key's last digit piece starts and ends, or (0, 0)
// for a key with no digit.
func lastPiece(key []byte) (start, end int) {
	end = len(key)
	for end > 0 && key[end-1]-'0' > 9 {
		end--
	}
	start = end
	for start > 0 && key[start-1]-'0' <= 9 {
		start--
	}
	if start == end {
		return 0, 0
	}
	return start + (end-start-1)/maxRun*maxRun, end
}

// sameShape reports whether a and b have one shape around their last
// digit pieces: the same literals and a piece of as many digits.
func sameShape(a, b []byte) bool {
	as, ae := lastPiece(a)
	bs, be := lastPiece(b)
	return ae > 0 && len(a) == len(b) && as == bs && ae == be && bytes.Equal(a[:as], b[:bs]) && bytes.Equal(a[ae:], b[be:])
}

// shapeOf is the shape around key's last digit piece, of the largest size
// a piece of its digits can need, or no shape for a key with no digit. It
// takes like's literals where they are the same, and so allocates nothing
// for the shape a stripe has.
func shapeOf(key []byte, like *shape) shape {
	start, end := lastPiece(key)
	if end == 0 {
		return shape{}
	}
	n := end - start
	s := shape{prefix: like.prefix, suffix: like.suffix, n: uint8(n), size: uint8(runBytes[n])}
	if string(key[:start]) != s.prefix {
		s.prefix = string(key[:start])
	}
	if string(key[end:]) != s.suffix {
		s.suffix = string(key[end:])
	}
	return s
}
