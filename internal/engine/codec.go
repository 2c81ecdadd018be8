package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
)

// Typed-value codec: a collection (list, set, sorted set, hash) as one
// self-describing byte blob. It is the collection's value in its engine
// record (collections.go), and the form in which it travels through the
// string-only storage tier and to replicas and is reinstalled on a cache
// miss (including after a process restart).
//
// Blob format:
//
//	0xFF | kind byte | uvarint count | count × element
//
// list element:  uvarint len | bytes
// set element:   uvarint len | member
// zset element:  uvarint len | member | 8-byte big-endian float64 bits
// hash element:  uvarint flen | field | uvarint vlen | value
//
// A blob is canonical: every uvarint is as short as it can be, count is at
// least 1, no set member, sorted-set member or hash field repeats, and a
// sorted set's elements ascend by (score, member) with no NaN score.
// LoadEncoded refuses any other blob.
//
// Raw string values share the same storage namespace, so a string that
// happens to begin with 0xFF is escaped on its way to storage as
// 0xFF 0x00 <raw>; kind bytes are never 0x00, so escaped strings and
// typed blobs cannot collide. Strings not starting with 0xFF (the
// overwhelmingly common case) pass through storage unchanged.
const (
	typedMarker = 0xFF
	escapedKind = 0x00
)

// ErrBadEncoding reports a corrupt typed-value blob.
var ErrBadEncoding = errors.New("engine: bad typed-value encoding")

// EscapeStringValue makes a raw string value safe to store alongside
// typed blobs. Values not beginning with the typed marker are returned
// unchanged (no copy); marker-prefixed values get a two-byte escape.
func EscapeStringValue(raw []byte) []byte {
	if len(raw) == 0 || raw[0] != typedMarker {
		return raw
	}
	out := make([]byte, 0, len(raw)+2)
	out = append(out, typedMarker, escapedKind)
	return append(out, raw...)
}

// UnescapeStringValue undoes EscapeStringValue. The result may alias v.
func UnescapeStringValue(v []byte) []byte {
	if len(v) >= 2 && v[0] == typedMarker && v[1] == escapedKind {
		return v[2:]
	}
	return v
}

// IsTypedValue reports whether a storage value is a typed collection blob
// (as opposed to a raw or escaped string).
func IsTypedValue(v []byte) bool {
	return len(v) >= 2 && v[0] == typedMarker && v[1] != escapedKind
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendLenBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendLenString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Encode snapshots key's current state in the form it travels to the
// storage tier and to replicas: a string's value (encoded false) or a copy
// of a collection's blob (encoded true). ErrNotFound when the key is
// absent or expired. It is a write path's read-back, not a client read:
// no hit is counted and the key's recency is left alone.
func (e *Engine) Encode(key string) (val []byte, encoded bool, err error) {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	defer s.mu.RUnlock()
	en, live := e.live(s, k)
	if !live {
		return nil, false, ErrNotFound
	}
	val, err = e.value(s.strs.parse(en.rec).stored)
	return val, en.rec.isColl(), err
}

// readUvarint reads the canonical uvarint p starts with, and returns it and
// the rest of p.
func readUvarint(p []byte) (uint64, []byte, error) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), p[1:], nil
	}
	v, n := binary.Uvarint(p)
	if n <= 0 || n != uvarintLen(v) {
		return 0, nil, ErrBadEncoding
	}
	return v, p[n:], nil
}

// readLenBytes decodes one uvarint-length-prefixed element, returning the
// element (aliasing p) and the remainder. A length under 128, one byte and
// canonical, is read here without a call: it is most of them, and a walk
// of a collection reads one or two an element.
func readLenBytes(p []byte) ([]byte, []byte, error) {
	if len(p) > 0 && int(p[0]) < min(len(p), 0x80) {
		return p[1 : 1+p[0]], p[1+p[0]:], nil
	}
	return readLongBytes(p)
}

// readLongBytes is readLenBytes for every length.
func readLongBytes(p []byte) ([]byte, []byte, error) {
	l, p, err := readUvarint(p)
	if err != nil || l > uint64(len(p)) {
		return nil, nil, ErrBadEncoding
	}
	return p[:l], p[l:], nil
}

// elem is one element of a collection: key is a list's value, a set's or
// sorted set's member or a hash's field, val a hash field's value and
// score a sorted-set member's. key and val alias the blob.
type elem struct {
	key, val []byte
	score    float64
}

// nextElem decodes the element of a collection of kind that p, the
// elements of its blob, starts with, and how many bytes of p it takes.
func nextElem(kind Kind, p []byte) (el elem, n int, err error) {
	var rest []byte
	if el.key, rest, err = readLenBytes(p); err != nil {
		return el, 0, err
	}
	switch kind {
	case KindZSet:
		if len(rest) < 8 {
			return el, 0, ErrBadEncoding
		}
		el.score = math.Float64frombits(binary.BigEndian.Uint64(rest))
		rest = rest[8:]
	case KindHash:
		if el.val, rest, err = readLenBytes(rest); err != nil {
			return el, 0, err
		}
	}
	return el, len(p) - len(rest), nil
}

// zless is a sorted set's order: by score, then by member.
func zless(a, b elem) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return bytes.Compare(a.key, b.key) < 0
}

// checkBlob reports ErrBadEncoding unless blob is a canonical collection
// blob.
func checkBlob(blob []byte) error {
	if !IsTypedValue(blob) {
		return ErrBadEncoding
	}
	kind := Kind(blob[1])
	count, p, err := readUvarint(blob[2:])
	// Every element takes at least one byte, so a count past the bytes
	// left is corrupt; checked before it sizes an allocation.
	if err != nil || kind < KindList || kind > KindHash || count == 0 || count > uint64(len(p)) {
		return ErrBadEncoding
	}
	var seen map[string]struct{} // the members or fields so far
	if kind != KindList {
		seen = make(map[string]struct{}, count)
	}
	var prev elem
	for i := uint64(0); i < count; i++ {
		el, n, err := nextElem(kind, p)
		if err != nil {
			return err
		}
		if seen != nil {
			if _, dup := seen[string(el.key)]; dup {
				return ErrBadEncoding
			}
			seen[string(el.key)] = struct{}{}
		}
		if kind == KindZSet && (math.IsNaN(el.score) || i > 0 && !zless(prev, el)) {
			return ErrBadEncoding
		}
		prev, p = el, p[n:]
	}
	if len(p) != 0 {
		return ErrBadEncoding
	}
	return nil
}

// LoadEncoded installs blob, a collection's typed encoding (Encode), as
// key's value, replacing any existing entry. The installed collection has
// no TTL: TTL state is cache-tier-only and does not survive the trip
// through storage. The blob is copied into the key's record. It must be
// canonical (checkBlob), which every blob Encode returns is: ErrBadEncoding
// otherwise, with the engine left as it was. A blob of no element is
// refused with the rest, as no empty collection exists.
func (e *Engine) LoadEncoded(key string, blob []byte) error {
	if err := checkBlob(blob); err != nil {
		return err
	}
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.Lock()
	e.publish(s, k, s.lookup(k), staged{flags: flagColl, val: blob})
	s.mu.Unlock()
	return nil
}
