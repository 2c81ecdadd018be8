package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// SSTable layout:
//
//	data blocks   entry*, each: klen uvarint | vlen uvarint | seq uvarint |
//	              kind byte | key | value
//	index block   count uvarint, then per block:
//	              klen uvarint | lastKey | off uvarint | len uvarint | crc fixed32
//	bloom block   marshaled bloom filter over user keys
//	footer        48 bytes fixed: indexOff, indexLen, bloomOff, bloomLen,
//	              numEntries, magic (all little-endian uint64)
//
// Blocks are individually CRC-checked via the index. Tables are immutable
// once built, which is what makes the shared-nothing read path lock-free.

const (
	footerSize = 48
	tableMagic = 0x7462_5353_5461_626c // "tbSSTabl"
)

var (
	errBadMagic   = errors.New("lsm: bad sstable magic")
	errBadBlock   = errors.New("lsm: block checksum mismatch")
	errBadFooter  = errors.New("lsm: bad sstable footer")
	errBadIndex   = errors.New("lsm: bad sstable index")
	crcTableCasta = crc32.MakeTable(crc32.Castagnoli)
)

// ErrBadBlock is the typed error reads surface when an SSTable block
// fails checksum verification (silent media corruption). Exported so
// fault-injection drills outside the package can assert on it; each
// occurrence also counts in Stats.BadBlocks.
var ErrBadBlock = errBadBlock

// tableMeta describes a finished table for the manifest.
type tableMeta struct {
	Num      uint64 `json:"num"`
	Size     int64  `json:"size"`
	Count    int64  `json:"count"`
	Smallest []byte `json:"smallest"`
	Largest  []byte `json:"largest"`
	// MaxSeq is the highest sequence number in the table, so that Open need
	// read no block to number the next write; 0 where it is not known: in a
	// manifest written before it was recorded, or one whose sum does not
	// match (sequences start at 1).
	MaxSeq uint64 `json:"max_seq,omitempty"`
}

func tableFileName(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.sst", num))
}

// --- builder ---

type tableBuilder struct {
	f         *os.File
	w         *bufio.Writer
	path      string
	blockSize int

	blockBuf  []byte // the data block being filled
	indexEnts []indexEntry
	hashes    []uint64 // bloomHash of every key added: h1, h2, h1, h2, ...
	off       uint64
	count     int64
	maxSeq    uint64
	smallest  []byte
	largest   []byte // the last key added
}

type indexEntry struct {
	lastKey []byte
	off     uint64
	length  uint32
	crc     uint32
}

func newTableBuilder(path string, blockSize int) (*tableBuilder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: create table: %w", err)
	}
	if blockSize <= 0 {
		blockSize = 4 << 10
	}
	return &tableBuilder{
		f: f, w: bufio.NewWriterSize(f, 256<<10), path: path,
		blockSize: blockSize,
	}, nil
}

// add appends an entry; keys must arrive in strictly increasing order. It
// copies what it keeps of key and e.value, so the caller may reuse both.
func (b *tableBuilder) add(key []byte, e memEntry) error {
	if b.largest != nil && bytes.Compare(key, b.largest) <= 0 {
		return fmt.Errorf("lsm: keys out of order: %q after %q", key, b.largest)
	}
	if b.smallest == nil {
		b.smallest = append([]byte(nil), key...)
	}
	b.largest = append(b.largest[:0], key...)

	buf := binary.AppendUvarint(b.blockBuf, uint64(len(key)))
	buf = binary.AppendUvarint(buf, uint64(len(e.value)))
	buf = binary.AppendUvarint(buf, e.seq)
	buf = append(buf, byte(e.kind))
	buf = append(buf, key...)
	b.blockBuf = append(buf, e.value...)

	h1, h2 := bloomHash(key)
	b.hashes = append(b.hashes, h1, h2)
	b.count++
	b.maxSeq = max(b.maxSeq, e.seq)
	if len(b.blockBuf) >= b.blockSize {
		return b.finishBlock()
	}
	return nil
}

func (b *tableBuilder) finishBlock() error {
	if len(b.blockBuf) == 0 {
		return nil
	}
	data := b.blockBuf
	crc := crc32.Checksum(data, crcTableCasta)
	if _, err := b.w.Write(data); err != nil {
		return fmt.Errorf("lsm: write block: %w", err)
	}
	b.indexEnts = append(b.indexEnts, indexEntry{
		lastKey: append([]byte(nil), b.largest...),
		off:     b.off,
		length:  uint32(len(data)),
		crc:     crc,
	})
	b.off += uint64(len(data))
	b.blockBuf = b.blockBuf[:0]
	return nil
}

// finish writes index, bloom and footer; returns table metadata.
func (b *tableBuilder) finish(num uint64) (tableMeta, error) {
	if err := b.finishBlock(); err != nil {
		return tableMeta{}, err
	}
	// index
	var idx bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(b.indexEnts)))
	idx.Write(tmp[:n])
	for _, e := range b.indexEnts {
		n = binary.PutUvarint(tmp[:], uint64(len(e.lastKey)))
		idx.Write(tmp[:n])
		idx.Write(e.lastKey)
		n = binary.PutUvarint(tmp[:], e.off)
		idx.Write(tmp[:n])
		n = binary.PutUvarint(tmp[:], uint64(e.length))
		idx.Write(tmp[:n])
		var crcb [4]byte
		binary.LittleEndian.PutUint32(crcb[:], e.crc)
		idx.Write(crcb[:])
	}
	indexOff := b.off
	if _, err := b.w.Write(idx.Bytes()); err != nil {
		return tableMeta{}, fmt.Errorf("lsm: write index: %w", err)
	}
	b.off += uint64(idx.Len())

	// bloom
	bloom := newBloom(len(b.hashes) / 2)
	for i := 0; i < len(b.hashes); i += 2 {
		bloom.add(b.hashes[i], b.hashes[i+1])
	}
	bloomBytes := bloom.Marshal()
	bloomOff := b.off
	if _, err := b.w.Write(bloomBytes); err != nil {
		return tableMeta{}, fmt.Errorf("lsm: write bloom: %w", err)
	}
	b.off += uint64(len(bloomBytes))

	// footer
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], indexOff)
	binary.LittleEndian.PutUint64(footer[8:16], uint64(idx.Len()))
	binary.LittleEndian.PutUint64(footer[16:24], bloomOff)
	binary.LittleEndian.PutUint64(footer[24:32], uint64(len(bloomBytes)))
	binary.LittleEndian.PutUint64(footer[32:40], uint64(b.count))
	binary.LittleEndian.PutUint64(footer[40:48], tableMagic)
	if _, err := b.w.Write(footer[:]); err != nil {
		return tableMeta{}, fmt.Errorf("lsm: write footer: %w", err)
	}
	if err := b.w.Flush(); err != nil {
		return tableMeta{}, err
	}
	if err := b.f.Sync(); err != nil {
		return tableMeta{}, err
	}
	if err := b.f.Close(); err != nil {
		return tableMeta{}, err
	}
	return tableMeta{
		Num:      num,
		Size:     int64(b.off) + footerSize,
		Count:    b.count,
		Smallest: b.smallest,
		Largest:  b.largest,
		MaxSeq:   b.maxSeq,
	}, nil
}

func (b *tableBuilder) abandon() {
	b.f.Close()
	os.Remove(b.path)
}

// --- reader ---

// tableReader serves reads from one immutable SSTable. Readers are
// refcounted: every version (see view.go) holds one reference per member
// table, so a reader outlives its removal from the hierarchy for as long
// as any in-flight snapshot still uses it. The final unref closes the file
// handle and — when a compaction marked the table obsolete — deletes it.
type tableReader struct {
	f     *os.File
	dir   string
	meta  tableMeta
	index []indexEntry
	bloom *bloomFilter
	cache *blockCache // shared, may be nil

	refs     atomic.Int32
	obsolete atomic.Bool
	reads    atomic.Int64 // blocks read from the file
}

func (t *tableReader) ref() { t.refs.Add(1) }

func (t *tableReader) unref() {
	if t.refs.Add(-1) == 0 {
		t.f.Close()
		if t.obsolete.Load() {
			os.Remove(tableFileName(t.dir, t.meta.Num))
		}
	}
}

// markObsolete schedules the table file for deletion at the last unref.
func (t *tableReader) markObsolete() { t.obsolete.Store(true) }

func openTable(dir string, meta tableMeta, cache *blockCache) (*tableReader, error) {
	f, err := os.Open(tableFileName(dir, meta.Num))
	if err != nil {
		return nil, fmt.Errorf("lsm: open table %d: %w", meta.Num, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerSize {
		f.Close()
		return nil, errBadFooter
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read footer: %w", err)
	}
	if binary.LittleEndian.Uint64(footer[40:48]) != tableMagic {
		f.Close()
		return nil, errBadMagic
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	indexLen := binary.LittleEndian.Uint64(footer[8:16])
	bloomOff := binary.LittleEndian.Uint64(footer[16:24])
	bloomLen := binary.LittleEndian.Uint64(footer[24:32])
	// The footer is read from disk: nothing it says may size a buffer or
	// place a read past the bytes the file has before it.
	body := uint64(st.Size() - footerSize)
	if indexLen > body || indexOff > body-indexLen || bloomLen > body || bloomOff > body-bloomLen {
		f.Close()
		return nil, errBadFooter
	}

	idxBuf := make([]byte, indexLen)
	if _, err := f.ReadAt(idxBuf, int64(indexOff)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read index: %w", err)
	}
	index, err := parseIndex(idxBuf, indexOff)
	if err != nil {
		f.Close()
		return nil, err
	}
	bloomBuf := make([]byte, bloomLen)
	if _, err := f.ReadAt(bloomBuf, int64(bloomOff)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read bloom: %w", err)
	}
	bloom, err := unmarshalBloom(bloomBuf)
	if err != nil {
		f.Close()
		return nil, err
	}
	t := &tableReader{f: f, dir: dir, meta: meta, index: index, bloom: bloom, cache: cache}
	t.refs.Store(1) // the caller's reference, transferred to a version
	return t, nil
}

// minIndexEntry is the encoded size of an index entry with an empty key.
const minIndexEntry = 1 + 1 + 1 + 4

// parseIndex decodes the index block. The blocks it names must lie inside
// the dataLen bytes that precede it in the file. lastKey slices alias buf.
func parseIndex(buf []byte, dataLen uint64) ([]indexEntry, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 || count > uint64(len(buf))/minIndexEntry {
		return nil, errBadIndex
	}
	buf = buf[n:]
	out := make([]indexEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(buf)
		if n <= 0 || klen > uint64(len(buf)-n) {
			return nil, errBadIndex
		}
		key := buf[n : n+int(klen) : n+int(klen)]
		buf = buf[n+int(klen):]
		off, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, errBadIndex
		}
		buf = buf[n:]
		length, n := binary.Uvarint(buf)
		if n <= 0 || len(buf)-n < 4 || length > dataLen || off > dataLen-length {
			return nil, errBadIndex
		}
		out = append(out, indexEntry{
			lastKey: key, off: off, length: uint32(length),
			crc: binary.LittleEndian.Uint32(buf[n:]),
		})
		buf = buf[n+4:]
	}
	return out, nil
}

// readBlock fetches (and verifies) the data block at index position i,
// consulting the shared cache first. A foreground read (scratch nil) counts
// as a hit or a miss there and fills the cache on a miss. A compaction walks
// every block of its inputs once: it passes its iterator's scratch, a block
// the cache lacks is read into that (good until the iterator's next read),
// and the cache, its recency order and its counters stay as the foreground
// left them.
func (t *tableReader) readBlock(i int, scratch *[]byte) ([]byte, error) {
	e := t.index[i]
	foreground := scratch == nil
	if t.cache != nil {
		if blk, ok := t.cache.get(t.meta.Num, e.off, foreground); ok {
			return blk, nil
		}
	}
	t.reads.Add(1)
	var blk []byte
	if foreground {
		blk = make([]byte, e.length)
	} else {
		if uint32(cap(*scratch)) < e.length {
			*scratch = make([]byte, e.length)
		}
		blk = (*scratch)[:e.length]
	}
	if _, err := t.f.ReadAt(blk, int64(e.off)); err != nil {
		return nil, fmt.Errorf("lsm: read block: %w", err)
	}
	if crc32.Checksum(blk, crcTableCasta) != e.crc {
		return nil, errBadBlock
	}
	if foreground && t.cache != nil {
		t.cache.put(t.meta.Num, e.off, blk)
	}
	return blk, nil
}

// maxSeq returns the highest sequence number in the table's readable
// blocks, reading each once round the block cache: what Open does for a
// table whose manifest entry predates MaxSeq. A block that fails its
// checksum is skipped: reads of it fail on their own.
func (t *tableReader) maxSeq() uint64 {
	var top uint64
	scratch := new([]byte)
	for i := range t.index {
		blk, err := t.readBlock(i, scratch)
		if err != nil {
			continue
		}
		it := blockIter{data: blk}
		for it.next() {
			top = max(top, it.seq)
		}
	}
	return top
}

// get looks up key; ok=false means not in this table. It is a fresh
// iterator's get. The returned entry's value aliases block (cache) memory —
// blocks are immutable, but callers must copy before handing the value to
// users (DB.Get does).
func (t *tableReader) get(key []byte) (memEntry, bool, error) {
	it := tableIterator{t: t}
	return it.get(key)
}

// blockIter decodes entries from one data block.
type blockIter struct {
	data []byte
	pos  int
	ikey []byte
	val  []byte
	seq  uint64
	kind entryKind
	err  error
}

func (it *blockIter) next() bool {
	if it.pos >= len(it.data) || it.err != nil {
		return false
	}
	klen, n := binary.Uvarint(it.data[it.pos:])
	if n <= 0 {
		it.err = errBadBlock
		return false
	}
	it.pos += n
	vlen, n := binary.Uvarint(it.data[it.pos:])
	if n <= 0 {
		it.err = errBadBlock
		return false
	}
	it.pos += n
	seq, n := binary.Uvarint(it.data[it.pos:])
	if n <= 0 {
		it.err = errBadBlock
		return false
	}
	it.pos += n
	if it.pos >= len(it.data) {
		it.err = errBadBlock
		return false
	}
	kind := entryKind(it.data[it.pos])
	it.pos++
	// Compared in uint64: a corrupt length cast to int could wrap negative,
	// pass the guard and panic at the slice.
	if rest := uint64(len(it.data) - it.pos); klen > rest || vlen > rest-klen {
		it.err = errBadBlock
		return false
	}
	it.ikey = it.data[it.pos : it.pos+int(klen)]
	it.pos += int(klen)
	it.val = it.data[it.pos : it.pos+int(vlen)]
	it.pos += int(vlen)
	it.seq = seq
	it.kind = kind
	return true
}

// tableIterator walks a table's entries in key order. It only moves
// forward: a seekGE to a key at or before its position stays put, so a
// run of ascending point lookups (MultiGet's sorted keys) walks the index
// front to back once and decodes a block shared by several keys once.
type tableIterator struct {
	t        *tableReader
	scratch  *[]byte // nil on a foreground iterator; see readBlock
	blockIdx int     // the block bi holds when loaded, else the next to load
	loaded   bool
	valid    bool // bi's current entry is the iterator's position
	bi       blockIter
	fail     error
}

func (t *tableReader) iter() *tableIterator { return &tableIterator{t: t} }

// compactionIter is iter for a merge's input: its reads go round the block
// cache, and key() and entry().value are good only until the next call of
// next or seekGE.
func (t *tableReader) compactionIter() *tableIterator {
	return &tableIterator{t: t, scratch: new([]byte)}
}

// load decodes block blockIdx; false past the last block or on a read error.
func (it *tableIterator) load() bool {
	if it.blockIdx >= len(it.t.index) {
		return false
	}
	blk, err := it.t.readBlock(it.blockIdx, it.scratch)
	if err != nil {
		it.fail = err
		return false
	}
	it.bi = blockIter{data: blk}
	it.loaded = true
	return true
}

func (it *tableIterator) next() bool {
	for it.fail == nil {
		if !it.loaded && !it.load() {
			break
		}
		if it.bi.next() {
			it.valid = true
			return true
		}
		if it.bi.err != nil {
			it.fail = it.bi.err
			break
		}
		it.blockIdx++
		it.loaded = false
	}
	it.valid = false
	return false
}

// seekGE positions at the first entry >= key that is not behind the
// current position. Returns true if positioned. A key the decoded block
// may still hold is sought in that block; any other searches only the
// index past it.
func (it *tableIterator) seekGE(key []byte) bool {
	if it.fail != nil {
		return false
	}
	if it.valid && bytes.Compare(it.bi.ikey, key) >= 0 {
		return true
	}
	if !it.loaded || bytes.Compare(key, it.t.index[it.blockIdx].lastKey) > 0 {
		if it.loaded {
			it.blockIdx++
		}
		rest := it.t.index[it.blockIdx:]
		it.blockIdx += sort.Search(len(rest), func(i int) bool {
			return bytes.Compare(rest[i].lastKey, key) >= 0
		})
		it.loaded, it.valid = false, false
		if !it.load() {
			return false
		}
	}
	for it.bi.next() {
		if bytes.Compare(it.bi.ikey, key) >= 0 {
			it.valid = true
			return true
		}
	}
	// Key falls after this block's last entry: the next block's first
	// entry is the answer.
	return it.next()
}

// get reports the entry for key: a bloom check, then one seekGE. Keys
// looked up through one iterator must not decrease.
func (it *tableIterator) get(key []byte) (memEntry, bool, error) {
	if !it.t.bloom.MayContain(key) {
		return memEntry{}, false, nil
	}
	if !it.seekGE(key) || !bytes.Equal(it.key(), key) {
		return memEntry{}, false, it.fail
	}
	return it.entry(), true, nil
}

func (it *tableIterator) key() []byte { return it.bi.ikey }
func (it *tableIterator) entry() memEntry {
	return memEntry{seq: it.bi.seq, kind: it.bi.kind, value: it.bi.val}
}
func (it *tableIterator) err() error { return it.fail }
