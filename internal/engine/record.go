package engine

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"tierbase/internal/pmem"
)

// record is everything the engine keeps for one key, contiguous and
// pointer-free, in a slot of its stripe's slab (slab.go):
//
//	flags+len(key) | [uvarint len(key)] | key | [deadline] | [uvarint len(value)] | value
//
// key is the key packed under its stripe's key model (keypack.go). Byte 0
// holds the four flags in its low bits and the key length above them; a key
// past maxShortKey bytes puts longKey there and its length in a uvarint
// after. deadline (8 bytes,
// little-endian unixnanos, 0 = none) is present only with flagTTL. value is
// a string's stored bytes: compressed with flagCompressed, and with
// flagPMem not the bytes themselves but the 12-byte pmem.Ref to them. With
// flagColl it is a collection's blob (collections.go), in DRAM and raw.
// The value's length is written only where nothing else gives it, for a
// raw value in DRAM: a ref is refBytes long, and a compressed value ends
// where its codec's Len says. The slice starts at the record and may run
// past its end (to the end of its page): index.parse(r).size is its length.
//
// A record is written once, in place, under the stripe write lock; after
// that only its deadline changes, also under the write lock. Its slot is
// reused as soon as the record is replaced or deleted, so a record, and
// anything that aliases it, is valid only while the stripe lock is held.
type record []byte

const (
	flagCompressed = 1 << iota
	flagPMem
	flagTTL
	flagColl

	flagBits    = 4                // byte 0 above them is the key length
	longKey     = 0xFF >> flagBits // or this: a uvarint key length follows
	maxShortKey = longKey - 1      // the longest key byte 0 holds the length of
	flagMask    = 1<<flagBits - 1
)

const refBytes = 12 // pmem.Ref: Off int64, Len int32

// uvarint is binary.Uvarint with the one-byte case, which is most value
// lengths, inlined.
func uvarint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// staged is a value as it will be stored, ready to be written into a
// record: what encode, a collection's update and LoadEncoded hand to
// publish. val may alias the caller's bytes.
type staged struct {
	flags byte
	val   []byte   // the stored bytes, unless flags has flagPMem
	ref   pmem.Ref // where they are, if it has
	at    int64    // the deadline, if flags has flagTTL
}

// valueLen is the length of the record's value field.
func (st staged) valueLen() int {
	if st.flags&flagPMem != 0 {
		return refBytes
	}
	return len(st.val)
}

// lengthed reports whether a value stored with these flags carries its
// length in the record: a raw value in DRAM.
func lengthed(flags byte) bool { return flags&(flagCompressed|flagPMem) == 0 }

// recordLen is the length of the record writeRecord builds.
func recordLen(key []byte, st staged) int {
	vlen := st.valueLen()
	n := 1 + len(key) + vlen
	if st.flags&flagTTL != 0 {
		n += 8
	}
	if lengthed(st.flags) {
		n += uvarintLen(uint64(vlen))
	}
	if len(key) > maxShortKey {
		n += uvarintLen(uint64(len(key)))
	}
	return n
}

// writeRecord assembles the record into r, which is recordLen bytes.
func writeRecord(r record, key []byte, st staged) {
	n := 1
	if len(key) <= maxShortKey {
		r[0] = st.flags | byte(len(key))<<flagBits
	} else {
		r[0] = st.flags | longKey<<flagBits
		n += binary.PutUvarint(r[1:], uint64(len(key)))
	}
	n += copy(r[n:], key)
	if st.flags&flagTTL != 0 {
		binary.LittleEndian.PutUint64(r[n:], uint64(st.at))
		n += 8
	}
	if lengthed(st.flags) {
		n += binary.PutUvarint(r[n:], uint64(len(st.val)))
	}
	if st.flags&flagPMem != 0 {
		binary.LittleEndian.PutUint64(r[n:], uint64(st.ref.Off))
		binary.LittleEndian.PutUint32(r[n+8:], uint32(st.ref.Len))
		return
	}
	copy(r[n:], st.val)
}

// keySpan is where r's key starts and how long it is: offset 1 for every
// key byte 0 has room for.
func (r record) keySpan() (off, n int) {
	if k := int(r[0] >> flagBits); k != longKey {
		return 1, k
	}
	long, w := uvarint(r[1:])
	return 1 + w, int(long)
}

// key is r's key, aliasing r.
func (r record) key() []byte {
	off, n := r.keySpan()
	return r[off : off+n]
}

// isColl reports whether r is a collection's record.
func (r record) isColl() bool { return r[0]&flagColl != 0 }

// hasKey reports whether r is the record of key.
func (r record) hasKey(key []byte) bool { return string(r.key()) == string(key) }

// hasShortKey is hasKey for a key of up to maxShortKey bytes, one whose
// length byte 0 holds: no call to keySpan, and small enough to inline into
// index.find, which runs it behind every probe word that matches.
func (r record) hasShortKey(key []byte) bool {
	k := int(r[0] >> flagBits)
	return k != longKey && string(r[1:1+k]) == string(key)
}

// stored is a record's value as kept. val aliases the record.
type stored struct {
	flags byte
	val   []byte
}

// fields is a record taken apart. key and val alias the record.
type fields struct {
	stored
	key      []byte
	deadline int64 // 0 = none
	head     int   // where the key, and the deadline if any, end: the value's length or the value follows
	size     int   // length of the record
}

// parse splits r, one of ix's records, into its fields. A compressed value
// is measured by the stripe's codec, which delimits what it wrote. One that
// the codec cannot measure, or that runs past the end of r's page, is a
// broken invariant of the engine's own bytes, as a slab book error would
// be: parse panics.
func (ix *index) parse(r record) fields {
	f := fields{stored: stored{flags: r[0] & flagMask}}
	off, n := r.keySpan()
	f.key = r[off : off+n]
	off += n
	if f.flags&flagTTL != 0 {
		f.deadline = int64(binary.LittleEndian.Uint64(r[off:]))
		off += 8
	}
	f.head = off
	var vlen int
	switch {
	case f.flags&flagPMem != 0:
		vlen = refBytes
	case f.flags&flagCompressed != 0:
		var err error
		if vlen, err = ix.codec.Len(r[off:]); err != nil || vlen > len(r)-off {
			panic(fmt.Sprintf("engine: a compressed value its codec cannot delimit in its page: %d of %d bytes (%v)", vlen, len(r)-off, err))
		}
	default:
		l, w := uvarint(r[off:])
		off += w
		vlen = int(l)
	}
	f.size = off + vlen
	f.val = r[off:f.size:f.size]
	return f
}

// deadline is parse(r).deadline without the parse: 0 at once for a record
// with no TTL slot (most of them, on every read).
func (r record) deadline() int64 {
	if r[0]&flagTTL == 0 {
		return 0
	}
	off, n := r.keySpan()
	return int64(binary.LittleEndian.Uint64(r[off+n:]))
}

// setDeadline writes at into the TTL slot, which r must have. Caller
// holds the stripe write lock.
func (r record) setDeadline(at int64) {
	off, n := r.keySpan()
	binary.LittleEndian.PutUint64(r[off+n:], uint64(at))
}

// withDeadline copies r, which has no TTL slot and parses to f, into dst,
// 8 bytes longer, with one set to at.
func (r record) withDeadline(dst record, f fields, at int64) {
	copy(dst, r[:f.head])
	dst[0] |= flagTTL
	binary.LittleEndian.PutUint64(dst[f.head:], uint64(at))
	copy(dst[f.head+8:], r[f.head:f.size])
}

// payload is the user bytes of a record of these flags whose key is klen
// bytes: the key, and the stored value unless it lives in PMem. A stripe
// counts its keys as written, and PayloadBytes takes what packing took off.
func payload(flags byte, klen, vlen int) int64 {
	if flags&flagPMem != 0 {
		return int64(klen)
	}
	return int64(klen + vlen)
}

// ref is the PMem location of a flagPMem record's value.
func (st stored) ref() pmem.Ref {
	return pmem.Ref{
		Off: int64(binary.LittleEndian.Uint64(st.val)),
		Len: int32(binary.LittleEndian.Uint32(st.val[8:])),
	}
}
