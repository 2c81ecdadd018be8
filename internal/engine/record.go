package engine

import (
	"encoding/binary"
	"math/bits"

	"tierbase/internal/pmem"
)

// record is everything the engine keeps for one string key, contiguous and
// pointer-free, in a slot of its stripe's slab (slab.go):
//
//	flags | uvarint len(key) | key | uvarint version | [deadline] | uvarint len(value) | value
//
// deadline (8 bytes, little-endian unixnanos, 0 = none) is present only
// with flagTTL. value is the stored bytes: compressed with flagCompressed,
// and with flagPMem not the bytes themselves but the 12-byte pmem.Ref to
// them. The slice starts at the record and may run past its end (to the
// end of its page): parse().size is its length.
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
)

const refBytes = 12 // pmem.Ref: Off int64, Len int32

// uvarint is binary.Uvarint with the one-byte case, which is nearly every
// key length and most value lengths, inlined.
func uvarint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// staged is a value as it will be stored, ready to be written into a
// record: what encode hands to publish. val may alias the caller's bytes.
type staged struct {
	flags byte
	val   []byte   // the stored bytes, unless flags has flagPMem
	ref   pmem.Ref // where they are, if it has
}

// valueLen is the length of the record's value field.
func (st staged) valueLen() int {
	if st.flags&flagPMem != 0 {
		return refBytes
	}
	return len(st.val)
}

// recordLen is the length of the record writeRecord builds.
func recordLen(key string, version uint64, vlen int) int {
	return 1 + uvarintLen(uint64(len(key))) + len(key) + uvarintLen(version) + uvarintLen(uint64(vlen)) + vlen
}

// writeRecord assembles the record, which has no TTL slot (withDeadline
// adds one), into r, which is recordLen bytes.
func writeRecord(r record, key string, version uint64, st staged) {
	r[0] = st.flags
	n := 1 + binary.PutUvarint(r[1:], uint64(len(key)))
	n += copy(r[n:], key)
	n += binary.PutUvarint(r[n:], version)
	n += binary.PutUvarint(r[n:], uint64(st.valueLen()))
	if st.flags&flagPMem != 0 {
		binary.LittleEndian.PutUint64(r[n:], uint64(st.ref.Off))
		binary.LittleEndian.PutUint32(r[n+8:], uint32(st.ref.Len))
		return
	}
	copy(r[n:], st.val)
}

// hasKey reports whether r is the record of key.
func (r record) hasKey(key string) bool {
	n, w := uvarint(r[1:])
	return int(n) == len(key) && string(r[1+w:1+w+len(key)]) == key
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
	version  uint64
	deadline int64 // 0 = none
	head     int   // offset of the value length: the header before it ends with the deadline, if any
	size     int   // length of the record
}

// parse splits r into its fields.
func (r record) parse() fields {
	f := fields{stored: stored{flags: r[0]}}
	n, w := uvarint(r[1:])
	off := 1 + w
	f.key = r[off : off+int(n)]
	off += int(n)
	f.version, w = uvarint(r[off:])
	off += w
	if f.flags&flagTTL != 0 {
		f.deadline = int64(binary.LittleEndian.Uint64(r[off:]))
		off += 8
	}
	f.head = off
	n, w = uvarint(r[off:])
	off += w
	f.size = off + int(n)
	f.val = r[off:f.size:f.size]
	return f
}

// deadline is parse().deadline, skipping the parse for a record without
// a TTL slot (most of them, on every read).
func (r record) deadline() int64 {
	if r[0]&flagTTL == 0 {
		return 0
	}
	return r.parse().deadline
}

// setDeadline writes at into the TTL slot, which r must have. Caller
// holds the stripe write lock.
func (r record) setDeadline(at int64) {
	binary.LittleEndian.PutUint64(r[r.parse().head-8:], uint64(at))
}

// withDeadline copies r, which has no TTL slot, into dst, 8 bytes longer,
// with one set to at.
func (r record) withDeadline(dst record, at int64) {
	f := r.parse()
	copy(dst, r[:f.head])
	dst[0] |= flagTTL
	binary.LittleEndian.PutUint64(dst[f.head:], uint64(at))
	copy(dst[f.head+8:], r[f.head:f.size])
}

// payload is the user bytes r holds in DRAM: the key, and the stored value
// unless it lives in PMem.
func (f fields) payload() int64 {
	if f.flags&flagPMem != 0 {
		return int64(len(f.key))
	}
	return int64(len(f.key) + len(f.val))
}

// ref is the PMem location of a flagPMem record's value.
func (st stored) ref() pmem.Ref {
	return pmem.Ref{
		Off: int64(binary.LittleEndian.Uint64(st.val)),
		Len: int32(binary.LittleEndian.Uint32(st.val[8:])),
	}
}
