package engine

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"tierbase/internal/pmem"
)

// A record is everything the engine keeps for one key, contiguous and
// pointer-free, in a slot of its stripe's slab (slab.go):
//
//	flags+len(key) | [uvarint len(key)] | key | [deadline] | [uvarint len(value)] | value
//
// key is the key packed under its stripe's key model (keypack.go). The
// header byte holds the four flags in its low bits and the key length
// above them; a key past maxShortKey bytes puts longKey there and its
// length in a uvarint after. deadline (8 bytes, little-endian unixnanos,
// 0 = none) is present only with flagTTL. value is a string's stored
// bytes: compressed with flagCompressed, and with flagPMem not the bytes
// themselves but the 12-byte pmem.Ref to them. With flagColl it is a
// collection's blob (collections.go), in DRAM and raw. The value's length
// is written only where nothing else gives it, for a raw value in DRAM: a
// ref is refBytes long, and a compressed value ends where its codec's Len
// says.
//
// A record is bare, stored without its header byte, exactly when its
// stripe can tell the byte: the stripe has a shape, the key is of it, and
// the value is a string in the engine's plain form (plainFlags) with no
// deadline. Every such record's header is the stripe's bareHead, and its
// index entry says it is bare (bareRef). No other record is ever bare, so
// a record's size follows from its key and value alone.
//
// A record is written once, in place, under the stripe write lock; after
// that only its deadline changes, also under the write lock. Its slot is
// reused as soon as the record is replaced or deleted, so a record, and
// anything that aliases it, is valid only while the stripe lock is held.
//
// record is a view of one: its header byte, read from the slot or taken
// from the stripe, and the bytes after it, which may run past the record's
// end (to the end of its page): index.parse(r).size is the slot's length.
type record struct {
	head byte   // flags and key length
	bare bool   // the slot holds no header byte: body is the whole slot
	body []byte // the slot from the byte after the header on
}

// view is the record in slot b, which ref names in its index: bare, with
// the header head, if ref says so.
func view(b []byte, ref uint32, head byte) record {
	if ref&bareRef != 0 {
		return record{head: head, bare: true, body: b}
	}
	return record{head: b[0], body: b[1:]}
}

// headLen is the bytes r's header takes in its slot.
func (r record) headLen() int {
	if r.bare {
		return 0
	}
	return 1
}

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

// recordLen is the length of the record writeRecord builds, its header
// byte included.
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

// header is the header byte of a record of key and a value of these flags.
func header(key []byte, flags byte) byte {
	if len(key) <= maxShortKey {
		return flags | byte(len(key))<<flagBits
	}
	return flags | longKey<<flagBits
}

// writeRecord assembles the record, header byte and all, into r, which is
// recordLen bytes.
func writeRecord(r []byte, key []byte, st staged) {
	r[0] = header(key, st.flags)
	writeBody(r[1:], key, st)
}

// writeBody assembles what follows the record's header byte into r, one
// byte shorter than recordLen: all that a bare record's slot holds.
func writeBody(r []byte, key []byte, st staged) {
	n := 0
	if len(key) > maxShortKey {
		n += binary.PutUvarint(r, uint64(len(key)))
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

// keySpan is where r's key starts in its body and how long it is: offset 0
// for every key the header byte has room for.
func (r record) keySpan() (off, n int) {
	if k := int(r.head >> flagBits); k != longKey {
		return 0, k
	}
	long, w := uvarint(r.body)
	return w, int(long)
}

// key is r's key, aliasing r.
func (r record) key() []byte {
	off, n := r.keySpan()
	return r.body[off : off+n]
}

// isColl reports whether r is a collection's record.
func (r record) isColl() bool { return r.head&flagColl != 0 }

// hasKey reports whether r is the record of key.
func (r record) hasKey(key []byte) bool { return string(r.key()) == string(key) }

// hasShortKey is hasKey for a key of up to maxShortKey bytes, one whose
// length the header byte holds: no call to keySpan, and small enough to
// inline into index.find, which runs it behind every probe word that
// matches.
func (r record) hasShortKey(key []byte) bool {
	k := int(r.head >> flagBits)
	return k != longKey && string(r.body[:k]) == string(key)
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
	head     int   // where in the body the key, and the deadline if any, end: the value's length or the value follows
	size     int   // length of the record in its slot
}

// parse splits r, one of ix's records, into its fields. A compressed value
// is measured by the stripe's codec, which delimits what it wrote. One that
// the codec cannot measure, or that runs past the end of r's page, is a
// broken invariant of the engine's own bytes, as a slab book error would
// be: parse panics.
func (ix *index) parse(r record) fields {
	f := fields{stored: stored{flags: r.head & flagMask}}
	off, n := r.keySpan()
	b := r.body
	f.key = b[off : off+n]
	off += n
	if f.flags&flagTTL != 0 {
		f.deadline = int64(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	f.head = off
	var vlen int
	switch {
	case f.flags&flagPMem != 0:
		vlen = refBytes
	case f.flags&flagCompressed != 0:
		var err error
		if vlen, err = ix.codec.Len(b[off:]); err != nil || vlen > len(b)-off {
			panic(fmt.Sprintf("engine: a compressed value its codec cannot delimit in its page: %d of %d bytes (%v)", vlen, len(b)-off, err))
		}
	default:
		l, w := uvarint(b[off:])
		off += w
		vlen = int(l)
	}
	end := off + vlen
	f.val = b[off:end:end]
	f.size = r.headLen() + end
	return f
}

// plainFlags is the flags of a string value in the engine's default form:
// compressed under a codec, raw (with its length) without one.
func (ix *index) plainFlags() byte {
	if ix.codec != nil {
		return flagCompressed
	}
	return 0
}

// bareHead is the header byte every bare record of the stripe has: a
// plain value and a key of the model's shape.
func (ix *index) bareHead() byte { return ix.plainFlags() | ix.model.size<<flagBits }

// bare reports whether the record of key, packed under the model, and a
// value of these flags goes without its header byte.
func (ix *index) bare(key []byte, flags byte) bool {
	return ix.model.holds(key) && flags == ix.plainFlags()
}

// deadline is parse(r).deadline without the parse: 0 at once for a record
// with no TTL slot (most of them, on every read).
func (r record) deadline() int64 {
	if r.head&flagTTL == 0 {
		return 0
	}
	off, n := r.keySpan()
	return int64(binary.LittleEndian.Uint64(r.body[off+n:]))
}

// setDeadline writes at into the TTL slot, which r must have. Caller
// holds the stripe write lock.
func (r record) setDeadline(at int64) {
	off, n := r.keySpan()
	binary.LittleEndian.PutUint64(r.body[off+n:], uint64(at))
}

// withDeadline copies r, which has no TTL slot and parses to f, into dst
// with its header byte, 8 bytes longer than its body and the header, with
// a TTL slot set to at: 9 bytes longer than r's slot if r is bare, 8 if
// not. The copy is never bare.
func (r record) withDeadline(dst []byte, f fields, at int64) {
	dst[0] = r.head | flagTTL
	copy(dst[1:], r.body[:f.head])
	binary.LittleEndian.PutUint64(dst[1+f.head:], uint64(at))
	copy(dst[1+f.head+8:], r.body[f.head:f.size-r.headLen()])
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
