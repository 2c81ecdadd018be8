package engine

import (
	"encoding/binary"
	"errors"
	"math"
)

// Typed-value codec: snapshots collection items (lists, sets, sorted
// sets, hashes) into self-describing byte blobs so the tiered write path
// can persist them through the string-only storage tier and reinstall
// them on a cache miss (including after a process restart).
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
// storage tier and to replicas: a string's value (encoded false) or a
// collection's typed blob (encoded true). ErrNotFound when the key is
// absent or expired. It is a write path's read-back, not a client read:
// no hit is counted and the key's recency is left alone.
func (e *Engine) Encode(key string) (val []byte, encoded bool, err error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	en, live := e.live(s, kh, key)
	if !live {
		return nil, false, ErrNotFound
	}
	if en.rec == nil {
		blob, ok := encodeCollectionLocked(en.it)
		if !ok {
			return nil, false, ErrBadEncoding
		}
		return blob, true, nil
	}
	f := en.rec.parse()
	data, _, err := e.take(f.stored, nil)
	if err == nil {
		val, err = e.finish(f.flags, data)
	}
	return val, false, err
}

// encodeCollectionLocked builds the typed blob for a non-string item.
// The caller holds the item's shard lock (read or write).
func encodeCollectionLocked(it *item) (blob []byte, ok bool) {
	blob = append(blob, typedMarker, byte(it.kind))
	switch it.kind {
	case KindList:
		blob = appendUvarint(blob, uint64(len(it.list)))
		for _, v := range it.list {
			blob = appendLenBytes(blob, v)
		}
	case KindSet:
		blob = appendUvarint(blob, uint64(len(it.set)))
		for m := range it.set {
			blob = appendLenString(blob, m)
		}
	case KindZSet:
		blob = appendUvarint(blob, uint64(len(it.zset.sorted)))
		for _, ent := range it.zset.sorted {
			blob = appendLenString(blob, ent.member)
			var fb [8]byte
			binary.BigEndian.PutUint64(fb[:], math.Float64bits(ent.score))
			blob = append(blob, fb[:]...)
		}
	case KindHash:
		blob = appendUvarint(blob, uint64(len(it.hash)))
		for f, v := range it.hash {
			blob = appendLenString(blob, f)
			blob = appendLenBytes(blob, v)
		}
	default:
		return nil, false
	}
	return blob, true
}

// readLenBytes decodes one uvarint-length-prefixed element, returning the
// element (aliasing p) and the remainder.
func readLenBytes(p []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || l > uint64(len(p)-n) {
		return nil, nil, ErrBadEncoding
	}
	p = p[n:]
	return p[:l], p[l:], nil
}

// LoadEncoded decodes a typed blob (produced by Encode) and
// installs it at key, replacing any existing entry. The installed item
// has no TTL: TTL state is cache-tier-only and does not survive the trip
// through storage. All element bytes are copied out of blob. A blob of no
// element is corrupt: Encode never writes one, as no empty collection
// exists.
func (e *Engine) LoadEncoded(key string, blob []byte) error {
	if !IsTypedValue(blob) {
		return ErrBadEncoding
	}
	kind := Kind(blob[1])
	p := blob[2:]
	count, n := binary.Uvarint(p)
	// Every element takes at least one byte, so a count past the bytes
	// left is corrupt; checked before it sizes an allocation.
	if n <= 0 || count == 0 || count > uint64(len(p)-n) {
		return ErrBadEncoding
	}
	p = p[n:]
	it := newItem(key, kind, int(count))
	for i := uint64(0); i < count; i++ {
		el, rest, err := readLenBytes(p)
		if err != nil {
			return err
		}
		switch kind {
		case KindList:
			it.push(el, false)
		case KindSet:
			it.sadd(string(el))
		case KindZSet:
			if len(rest) < 8 {
				return ErrBadEncoding
			}
			it.zadd(string(el), math.Float64frombits(binary.BigEndian.Uint64(rest)))
			rest = rest[8:]
		case KindHash:
			var v []byte
			if v, rest, err = readLenBytes(rest); err != nil {
				return err
			}
			it.hset(string(el), v)
		default:
			return ErrBadEncoding
		}
		p = rest
	}
	if len(p) != 0 {
		return ErrBadEncoding
	}
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if en := s.lookup(kh, key); en.present() {
		e.remove(s, key, en)
	}
	e.addItem(s, key, it)
	return nil
}
