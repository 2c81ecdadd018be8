package engine

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// A key is stored in its record packed: each maximal run of ASCII
// digits, cut into pieces of at most maxRun digits from its start, is
// written as
//
//	packMark | len(piece)<<3 + the value's top 3 bits | the rest of the value, big-endian
//
// wherever that is shorter than the digits themselves, and a literal
// packMark byte is written as packMark 0. Every other byte, and every piece
// the mark would not shorten, is written as it is. The value takes as many
// bytes as the largest value of that many digits needs (runBytes), not as
// few as it could: keys that differ only in their digits pack to one
// length, so their records are one size and reuse one another's slab slots
// (slots are exact, and a freed slot goes only to a record of its size). So
// "k000000000123456" (16 bytes) is 'k' FF 78 00 00 00 01 E2 40 (9 bytes),
// and since unpack inverts pack, two keys pack equal only if they are
// equal.
//
// The index hashes and compares packed keys, and a resize rehashes them from
// records; everything outside the engine, and the stripe choice, sees the
// key as written. A key leaves a record through unpack: the clock's pinned
// call, CollectExpired and ForEachEncodedChunked's key listing.
const (
	packMark = 0xFF
	maxRun   = 19 // the most digits a uint64 always holds
)

// runBytes[n] is what a piece of n digits takes after packMark: its length
// and the top 3 bits of its value in one byte, then the rest of the largest
// n-digit value's bits in whole bytes.
var runBytes = func() (w [maxRun + 1]int) {
	top := uint64(0)
	for n := 1; n <= maxRun; n++ {
		top = top*10 + 9
		w[n] = 1 + (max(bits.Len64(top)-3, 0)+7)/8
	}
	return w
}()

// keyBuf is room on a caller's stack for a packed key: one that packs
// longer than this goes to the heap.
type keyBuf [64]byte

// probe is a key as the engine looks it up: as written, for the stripe
// choice and the accounts, and packed with its slot hash, for the index.
type probe struct {
	key    string
	packed []byte
	h      uint32 // slotHash of packed
	stripe uint32
}

// probe packs key into buf.
func (e *Engine) probe(key string, buf []byte) probe {
	p, kh := appendPacked(buf[:0], key)
	return probe{key: key, packed: p, h: slotHash(fnv1a(p)), stripe: kh & e.mask}
}

// appendPacked appends the packed form of key to dst, and returns with it
// fnv1a(key), the hash of the key as written that picks its stripe: one
// pass over the key makes both.
func appendPacked(dst []byte, key string) ([]byte, uint32) {
	h := uint32(fnvOffset)
	for i := 0; i < len(key); {
		j := i
		for ; j < len(key) && key[j]-'0' > 9; j++ {
			h = (h ^ uint32(key[j])) * fnvPrime
			if key[j] == packMark {
				dst = append(append(dst, key[i:j+1]...), 0)
				i = j + 1
			}
		}
		dst = append(dst, key[i:j]...)
		i = j
		var v uint64
		for ; j < len(key) && j-i < maxRun && key[j]-'0' <= 9; j++ {
			h = (h ^ uint32(key[j])) * fnvPrime
			v = v*10 + uint64(key[j]-'0')
		}
		if n := j - i; 1+runBytes[n] < n {
			var be [8]byte
			binary.BigEndian.PutUint64(be[:], v)
			w := runBytes[n] - 1 // the bytes after the one that holds n
			dst = append(dst, packMark, byte(n)<<3|byte(v>>(8*w)))
			dst = append(dst, be[8-w:]...)
		} else {
			dst = append(dst, key[i:j]...)
		}
		i = j
	}
	return dst, h
}

// appendUnpacked appends the key whose packed form is packed to dst.
func appendUnpacked(dst, packed []byte) []byte {
	for i := 0; i < len(packed); i++ {
		c := packed[i]
		if c != packMark {
			dst = append(dst, c)
			continue
		}
		i++
		n := int(packed[i] >> 3)
		if n == 0 {
			dst = append(dst, packMark)
			continue
		}
		v := uint64(packed[i] & 7)
		for end := i + runBytes[n] - 1; i < end; {
			i++
			v = v<<8 | uint64(packed[i])
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

// unpackKey is the key whose packed form is packed.
func unpackKey(packed []byte) string {
	var buf keyBuf
	return string(appendUnpacked(buf[:0], packed))
}

// unpackedLen is len(unpackKey(packed)) without building the key.
func unpackedLen(packed []byte) int {
	n := len(packed)
	for i := 0; i < len(packed); i++ {
		if packed[i] != packMark {
			continue
		}
		if run := int(packed[i+1] >> 3); run == 0 {
			n--
			i++
		} else {
			n += run - 1 - runBytes[run]
			i += runBytes[run]
		}
	}
	return n
}
