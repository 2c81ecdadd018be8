package lsm

import (
	"encoding/binary"
	"errors"
	"sync"
)

// Batch is an ordered set of writes committed as one unit by DB.Apply:
// one sequence range, one WAL record (one append, one fsync window), one
// pass over the memtable. Atomicity is a durability property — crash
// replay applies the whole record or none of it — not read isolation: a
// concurrent reader may observe a prefix of a batch mid-apply (the
// memtable updates keys in place, so point-in-time read snapshots over it
// are not possible; see view.acquireView). Keys and values are copied in
// at Put/Delete time, so callers may reuse their buffers immediately.
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

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.bytes = 0
	b.slab = nil
}

var errEmptyKey = errors.New("lsm: empty key")

// batchWriter is one Apply call waiting in the group-commit queue.
// Writers are pooled: done is a 1-buffered channel used as a completion
// token (commitGroup sends exactly one token per writer; each Apply call
// drains its own token, including the leader's), never closed, so the
// same writer — and its channel — can be reused by the next Apply.
type batchWriter struct {
	b    *Batch
	err  error
	done chan struct{}
}

var writerPool = sync.Pool{
	New: func() any { return &batchWriter{done: make(chan struct{}, 1)} },
}

// Apply commits the batch atomically. Concurrent Apply calls coalesce: the
// first writer to find the queue empty becomes the leader, and while it
// commits (WAL append + fsync + memtable insert) later writers pile into
// the pending queue; the next leader commits them all as ONE group — one
// WAL record, one fsync window, one commit critical section — and fans the
// result back out. This is the storage-tier analog of the cache tier's
// per-key write coalescing: sequential callers pay no extra latency, and
// under contention the WAL cost is amortized across the whole group.
func (db *DB) Apply(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	for _, op := range b.ops {
		if len(op.key) == 0 {
			return errEmptyKey
		}
	}
	w := writerPool.Get().(*batchWriter)
	w.b, w.err = b, nil
	db.pendMu.Lock()
	if db.pend == nil && db.pendSpare != nil {
		db.pend, db.pendSpare = db.pendSpare, nil
	}
	db.pend = append(db.pend, w)
	leader := len(db.pend) == 1
	db.pendMu.Unlock()
	if !leader {
		<-w.done
		err := w.err
		w.b = nil
		writerPool.Put(w)
		return err
	}
	db.commitMu.Lock()
	db.pendMu.Lock()
	group := db.pend
	db.pend = nil // arrivals from here on elect the next leader
	db.pendMu.Unlock()
	db.commitGroup(group)
	db.commitMu.Unlock()
	<-w.done // commitGroup already sent our token; never blocks
	err := w.err
	w.b = nil
	writerPool.Put(w)
	// Recycle the group slice for a future leader. Entries were cleared by
	// commitGroup, so the spare does not root pooled writers.
	db.pendMu.Lock()
	if db.pendSpare == nil {
		db.pendSpare = group[:0]
	}
	db.pendMu.Unlock()
	return err
}

// commitGroup commits a group of batches as one unit. Caller holds
// commitMu. The group is all-or-nothing against the WAL: if the single
// append fails, nothing reaches the memtable.
func (db *DB) commitGroup(group []*batchWriter) {
	finish := func(err error) {
		for i, w := range group {
			w.err = err
			w.done <- struct{}{} // completion token; done is 1-buffered
			group[i] = nil       // don't root pooled writers via pendSpare
		}
	}
	var n int
	var bytes int64
	for _, w := range group {
		n += len(w.b.ops)
		bytes += w.b.bytes
	}

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		finish(ErrDBClosed)
		return
	}
	if err := db.flushErr; err != nil {
		db.mu.Unlock()
		finish(err)
		return
	}
	base := db.seq + 1
	db.seq += uint64(n)
	mem := db.mem // stable: rotation happens only under commitMu, which we hold
	db.mu.Unlock()

	if db.wlog != nil {
		// The encode scratch is guarded by commitMu (held here) and reused
		// across commits; wal.Append copies the payload out before returning.
		db.walBuf = encodeBatchRecordInto(db.walBuf[:0], base, group, n, int(bytes))
		err := db.wlog.Append(db.walBuf)
		if cap(db.walBuf) > maxWALScratch {
			db.walBuf = nil // don't pin a huge batch's buffer forever
		}
		if err != nil {
			// The sequence range is burned but unused; replay tolerates gaps.
			finish(err)
			return
		}
	}
	seq := base
	for _, w := range group {
		for _, op := range w.b.ops {
			mem.apply(seq, op.kind, op.key, op.val)
			seq++
		}
	}
	db.writeBytes.Add(bytes)
	finish(nil)

	if mem.sl.approximateSize() >= db.opts.MemtableBytes {
		if err := db.rotate(); err != nil && !errors.Is(err, ErrDBClosed) {
			// The group is durable and applied; the rotation failure will
			// resurface on the next write via flushErr/WAL state.
			db.failFlush(err)
		}
	}
}

// WAL record format: every record is one batch record.
//
//	0x00 | version byte (1) | uvarint baseSeq | uvarint count |
//	count × ( kind byte | uvarint klen | key | uvarint vlen | val )
//
// Operation i carries sequence baseSeq+i. One batch (or one whole commit
// group) is one record, so crash replay sees it all-or-nothing: a torn or
// corrupt tail record drops the entire group, never half of it.
const (
	batchRecMarker  = 0x00
	batchRecVersion = 1
)

// maxWALScratch caps the retained size of the reused WAL encode buffer.
const maxWALScratch = 1 << 20

// encodeBatchRecordInto appends the batch record for group to buf.
func encodeBatchRecordInto(buf []byte, base uint64, group []*batchWriter, n, bytes int) []byte {
	if need := 2 + 2*binary.MaxVarintLen64 + n*(1+2*binary.MaxVarintLen64) + bytes; cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, batchRecMarker, batchRecVersion)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], base)]...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(n))]...)
	for _, w := range group {
		for _, op := range w.b.ops {
			buf = append(buf, byte(op.kind))
			buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(op.key)))]...)
			buf = append(buf, op.key...)
			buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(op.val)))]...)
			buf = append(buf, op.val...)
		}
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
