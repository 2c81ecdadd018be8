package engine

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"tierbase/internal/pmem"
)

// record is everything the engine keeps for one string key, in one
// pointer-free allocation:
//
//	flags | uvarint len(key) | key | uvarint version | [deadline] | value
//
// deadline (8 bytes, little-endian unixnanos, 0 = none) is present only
// with flagTTL. value is the stored bytes: compressed with flagCompressed,
// and with flagPMem not the bytes themselves but the 12-byte pmem.Ref to
// them. A published record never changes, except that its deadline may be
// rewritten in place under the stripe write lock; readers read the
// deadline under the stripe read lock and the value bytes after it.
type record []byte

const (
	flagCompressed = 1 << iota
	flagPMem
	flagTTL
)

const refBytes = 12 // pmem.Ref: Off int64, Len int32

// ErrTooLarge rejects a key and value that together pass 4 GiB.
var ErrTooLarge = errors.New("engine: key and value too large")

// uvarint is binary.Uvarint with the one-byte case, which is nearly every
// key length and most versions, inlined.
func uvarint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// newRecord builds the record for key. deadline != 0 reserves and sets
// the TTL slot.
func newRecord(key string, version uint64, flags byte, deadline int64, val []byte) (record, error) {
	size := 1 + uvarintLen(uint64(len(key))) + len(key) + uvarintLen(version) + len(val)
	if deadline != 0 {
		flags |= flagTTL
		size += 8
	}
	if size > maxRecBytes {
		return nil, ErrTooLarge
	}
	r := make(record, size)
	r[0] = flags
	n := 1 + binary.PutUvarint(r[1:], uint64(len(key)))
	n += copy(r[n:], key)
	n += binary.PutUvarint(r[n:], version)
	if deadline != 0 {
		binary.LittleEndian.PutUint64(r[n:], uint64(deadline))
		n += 8
	}
	copy(r[n:], val)
	return r, nil
}

// hasKey reports whether r is the record of key.
func (r record) hasKey(key string) bool {
	n, w := uvarint(r[1:])
	return int(n) == len(key) && string(r[1+w:1+w+len(key)]) == key
}

// stored is a record's value as kept: what decode needs, and all a reader
// carries out of the stripe lock. val aliases the record.
type stored struct {
	flags byte
	val   []byte
}

// fields is a record taken apart. key aliases the record.
type fields struct {
	stored
	key      []byte
	version  uint64
	deadline int64 // 0 = none
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
	f.val = r[off:]
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
	f := r.parse()
	slot := r[len(r)-len(f.val)-8:]
	binary.LittleEndian.PutUint64(slot, uint64(at))
}

// withDeadline is a copy of r, which has no TTL slot, with one set to at.
func (r record) withDeadline(at int64) (record, error) {
	f := r.parse()
	return newRecord(string(f.key), f.version, f.flags, at, f.val)
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

// appendRef encodes ref as a flagPMem record's value.
func appendRef(b []byte, ref pmem.Ref) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(ref.Off))
	return binary.LittleEndian.AppendUint32(b, uint32(ref.Len))
}
