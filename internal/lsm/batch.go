package lsm

import (
	"encoding/binary"
	"errors"
)

// Batch is an ordered set of writes committed as one unit by DB.Apply:
// one sequence range, one WAL record (one append; one fsync under
// wal.SyncAlways), one pass over the memtable. Atomicity is a durability
// property — crash replay applies the whole record or none of it — not
// read isolation: a concurrent reader may observe a prefix of a batch
// mid-apply (the memtable updates keys in place, so point-in-time read
// snapshots over it are not possible; see view.acquireView). Keys and
// values are copied in at Put/Delete time, so callers may reuse their
// buffers immediately.
type Batch struct {
	ops   []batchOp
	bytes int64
	slab  []byte // what Grow reserved and the ops have not yet taken
}

type batchOp struct {
	kind entryKind
	key  []byte
	val  []byte
}

// Grow sizes the batch once for ops more operations holding bytes of keys
// and values between them: two allocations for the lot in place of one per
// operation and the doublings of the op list. A batch that outgrows what it
// reserved falls back to allocating per operation.
func (b *Batch) Grow(ops, bytes int) {
	if cap(b.ops)-len(b.ops) < ops {
		b.ops = append(make([]batchOp, 0, len(b.ops)+ops), b.ops...)
	}
	b.slab = make([]byte, 0, bytes)
}

// take copies key and val into one piece of memory, the slab's if it has
// room. The memtable aliases that memory after Apply, so it is never
// recycled: Reset lets the slab go.
func (b *Batch) take(key, val []byte) (k, v []byte) {
	n := len(key) + len(val)
	if cap(b.slab)-len(b.slab) < n {
		b.slab = make([]byte, 0, n)
	}
	kv := append(append(b.slab[len(b.slab):], key...), val...)
	b.slab = b.slab[:len(b.slab)+n]
	return kv[:len(key):len(key)], kv[len(key):n:n]
}

// Put queues key=value, copying both.
func (b *Batch) Put(key, val []byte) {
	k, v := b.take(key, val)
	b.ops = append(b.ops, batchOp{kind: kindSet, key: k, val: v})
	b.bytes += int64(len(key) + len(val))
}

// Delete queues a tombstone for key.
func (b *Batch) Delete(key []byte) {
	k, _ := b.take(key, nil)
	b.ops = append(b.ops, batchOp{kind: kindDelete, key: k})
	b.bytes += int64(len(key))
}

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.bytes = 0
	b.slab = nil
}

var errEmptyKey = errors.New("lsm: empty key")

// Apply commits the batch atomically, one writer at a time: under commitMu
// it takes the batch's sequence range, appends one WAL record, applies the
// ops to the memtable and rotates the memtable if it is full. The batch is
// all-or-nothing against the WAL: if the append fails, nothing reaches the
// memtable.
func (db *DB) Apply(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	for _, op := range b.ops {
		if len(op.key) == 0 {
			return errEmptyKey
		}
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrDBClosed
	}
	if err := db.flushErr; err != nil {
		db.mu.Unlock()
		return err
	}
	base := db.seq + 1
	db.seq += uint64(len(b.ops))
	mem := db.mem // stable: rotation happens only under commitMu, which we hold
	db.mu.Unlock()

	if db.wlog != nil {
		// The encode scratch is guarded by commitMu (held here) and reused
		// across commits; wal.Append copies the payload out before returning.
		db.walBuf = encodeBatchRecordInto(db.walBuf[:0], base, b)
		err := db.wlog.Append(db.walBuf)
		if cap(db.walBuf) > maxWALScratch {
			db.walBuf = nil // don't pin a huge batch's buffer forever
		}
		if err != nil {
			// The sequence range is burned but unused; replay tolerates gaps.
			return err
		}
	}
	for i, op := range b.ops {
		mem.apply(base+uint64(i), op.kind, op.key, op.val)
	}
	db.writeBytes.Add(b.bytes)

	if mem.sl.approximateSize() >= db.opts.MemtableBytes {
		if err := db.rotate(); err != nil && !errors.Is(err, ErrDBClosed) {
			// The batch is durable and applied; the rotation failure will
			// resurface on the next write via flushErr/WAL state.
			db.failFlush(err)
		}
	}
	return nil
}

// WAL record format: every record is one batch record.
//
//	0x00 | version byte (1) | uvarint baseSeq | uvarint count |
//	count × ( kind byte | uvarint klen | key | uvarint vlen | val )
//
// Operation i carries sequence baseSeq+i. One batch is one record, so crash
// replay sees it all-or-nothing: a torn or corrupt tail record drops the
// entire batch, never half of it.
const (
	batchRecMarker  = 0x00
	batchRecVersion = 1
)

// maxWALScratch caps the retained size of the reused WAL encode buffer.
const maxWALScratch = 1 << 20

// encodeBatchRecordInto appends the batch record for b to buf.
func encodeBatchRecordInto(buf []byte, base uint64, b *Batch) []byte {
	if need := 2 + 2*binary.MaxVarintLen64 + len(b.ops)*(1+2*binary.MaxVarintLen64) + int(b.bytes); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, batchRecMarker, batchRecVersion)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], base)]...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(b.ops)))]...)
	for _, op := range b.ops {
		buf = append(buf, byte(op.kind))
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(op.key)))]...)
		buf = append(buf, op.key...)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(op.val)))]...)
		buf = append(buf, op.val...)
	}
	return buf
}

var errBadBatchRecord = errors.New("lsm: bad wal batch record")

// decodeBatchRecord calls fn for each operation in a batch record. Key and
// value slices alias p.
func decodeBatchRecord(p []byte, fn func(seq uint64, kind entryKind, key, val []byte) error) error {
	if len(p) < 2 || p[0] != batchRecMarker {
		return errBadBatchRecord
	}
	if p[1] != batchRecVersion {
		return errBadBatchRecord
	}
	p = p[2:]
	base, n := binary.Uvarint(p)
	if n <= 0 {
		return errBadBatchRecord
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return errBadBatchRecord
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		if len(p) < 1 {
			return errBadBatchRecord
		}
		kind := entryKind(p[0])
		p = p[1:]
		// Compare lengths in uint64: casting a corrupt huge klen to int
		// would wrap negative, pass the guard, and panic at the slice.
		klen, n := binary.Uvarint(p)
		if n <= 0 || klen > uint64(len(p)-n) {
			return errBadBatchRecord
		}
		p = p[n:]
		key := p[:klen]
		p = p[klen:]
		vlen, n := binary.Uvarint(p)
		if n <= 0 || vlen > uint64(len(p)-n) {
			return errBadBatchRecord
		}
		p = p[n:]
		val := p[:vlen]
		p = p[vlen:]
		if err := fn(base+i, kind, key, val); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return errBadBatchRecord
	}
	return nil
}
