// Package lsm implements the storage tier of TierBase: a log-structured
// merge-tree persistent key-value store (paper §3, "the storage tier
// typically utilizes a LSM-tree structure stored on SSD or HDD to optimize
// write performance and storage capacity"). It stands in for UCS, Ant
// Group's internal "LSM-Tree with a shared disk architecture and remote
// compaction"; TierBase's pluggable storage adapter (internal/cache's
// Storage interface) lets any KV store take this role.
//
// Components: a skiplist memtable, WAL-backed durability, immutable
// SSTables with block-structured layout + bloom filters + checksums, a
// JSON manifest with atomic version edits, leveled and size-tiered
// compaction, an LRU block cache, and heap-merged iterators.
package lsm

import (
	"encoding/binary"
	"errors"
)

// bloomFilter is a standard Bloom filter with double hashing
// (Kirsch-Mitzenmacher).
type bloomFilter struct {
	bits []byte
	k    uint32
}

// Every table's filter spends bloomBitsPerKey bits a key and probes bloomK
// times (ln 2 × bloomBitsPerKey, rounded down): about 1 % false positives.
const (
	bloomBitsPerKey = 10
	bloomK          = 6
)

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloomFilter {
	nBits := max(n*bloomBitsPerKey, 64)
	return &bloomFilter{bits: make([]byte, (nBits+7)/8), k: bloomK}
}

// FNV-1a, 64 bit: bloomHash is hash/fnv's New64a written out, because a
// hash.Hash64 is an allocation and bloomHash runs once per key of every
// table built and once per table every Get probes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// bloomHash returns the two hashes double hashing strides by: FNV-1a of key,
// and FNV-1a of a salt byte followed by key, made odd so strides cover the
// table. The filter on disk is only the bits these set, so the values are
// part of the table format.
func bloomHash(key []byte) (h1, h2 uint64) {
	h1 = fnvOffset64
	h2 = fnvOffset64 ^ 0x9e
	h2 *= fnvPrime64
	for _, c := range key {
		h1 = (h1 ^ uint64(c)) * fnvPrime64
		h2 = (h2 ^ uint64(c)) * fnvPrime64
	}
	return h1, h2 | 1
}

// add inserts the key whose bloomHash is (h1, h2).
func (b *bloomFilter) add(h1, h2 uint64) {
	n := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % n
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

// MayContain reports whether key is possibly present (no false negatives).
func (b *bloomFilter) MayContain(key []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(key)
	n := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % n
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// Marshal encodes the filter as [k uint32][bits...].
func (b *bloomFilter) Marshal() []byte {
	out := make([]byte, 4+len(b.bits))
	binary.LittleEndian.PutUint32(out, b.k)
	copy(out[4:], b.bits)
	return out
}

var errBadBloom = errors.New("lsm: bad sstable bloom block")

// maxBloomK is the most probes a filter read from a table may claim; a
// filter that claims more is damaged.
const maxBloomK = 30

// unmarshalBloom decodes a filter produced by Marshal. A block too short
// for the header is a table built without a filter.
func unmarshalBloom(data []byte) (*bloomFilter, error) {
	if len(data) < 4 {
		return &bloomFilter{}, nil
	}
	k := binary.LittleEndian.Uint32(data)
	if k < 1 || k > maxBloomK {
		return nil, errBadBloom
	}
	return &bloomFilter{k: k, bits: data[4:]}, nil
}
