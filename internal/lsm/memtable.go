package lsm

import (
	"os"

	"tierbase/internal/wal"
)

// memtable wraps the skiplist with the bookkeeping the flush pipeline
// needs. A memtable is in one of two states:
//
//   - active: the single memtable receiving writes. Writers are serialized
//     by the commit lock; readers go through the skiplist's internal lock.
//   - sealed (immutable): swapped onto db.imm by a rotation. No writes ever
//     touch it again, so the background flusher and snapshot readers use it
//     without coordination.
//
// maxSeq and walKeepSeg are written only while the memtable is active or
// being sealed (under the commit lock) and read only after sealing (the
// db.mu hand-off into db.imm provides the happens-before edge).
type memtable struct {
	sl     *skiplist
	maxSeq uint64 // highest sequence applied; becomes manifest.LastSeq at flush
	// walKeepSeg is the WAL segment that started when this memtable was
	// sealed. Set at rotation: every record of this memtable lives in
	// segments older than walKeepSeg, so after its flush installs,
	// RemoveBefore(walKeepSeg) reclaims exactly the segments it covered.
	walKeepSeg int
}

func newMemtable() *memtable { return &memtable{sl: newSkiplist()} }

// apply inserts one operation. Caller holds the commit lock (or is Open's
// single-threaded replay).
func (m *memtable) apply(seq uint64, kind entryKind, key, val []byte) {
	m.sl.put(key, memEntry{seq: seq, kind: kind, value: val})
	if seq > m.maxSeq {
		m.maxSeq = seq
	}
}

// rotate seals the active memtable onto the immutable list and installs a
// fresh one, waking the background flusher. Writers therefore never build
// SSTables inline — tripping MemtableBytes costs one pointer swap plus a
// WAL segment rotation, which under wal.SyncInterval writes the sealed
// segment out but leaves its fsync to the log's ticker (see wal.Log): every
// writer is queued behind commitMu here. Caller holds commitMu (so no
// concurrent appends race the WAL rotation) and must NOT hold db.mu.
//
// Backpressure: when the flusher is MaxImmutables memtables behind, the
// rotating writer waits — bounding memory without ever blocking readers
// (waiting releases db.mu; snapshot reads only take it briefly).
func (db *DB) rotate() error {
	// Rotate the WAL first: records of the sealed memtable are wholly in
	// segments older than the new one.
	keepSeg := 0
	if db.wlog != nil {
		if l, ok := db.wlog.(wal.Rotator); ok {
			seg, err := l.Rotate()
			if err != nil {
				return err
			}
			keepSeg = seg
		}
	}
	db.mu.Lock()
	for len(db.imm) >= db.opts.MaxImmutables && db.flushErr == nil && !db.closed {
		db.flushCond.Wait()
	}
	if db.closed {
		db.mu.Unlock()
		return ErrDBClosed
	}
	if err := db.flushErr; err != nil {
		db.mu.Unlock()
		return err
	}
	m := db.mem
	m.walKeepSeg = keepSeg
	// Copy-on-write: snapshot views hold the previous slice header.
	db.imm = append(append([]*memtable(nil), db.imm...), m)
	db.mem = newMemtable()
	db.mu.Unlock()
	select {
	case db.flushCh <- struct{}{}:
	default:
	}
	return nil
}

// flushLoop is the background flusher goroutine: it drains sealed
// memtables oldest-first into L0 tables. SSTable construction happens with
// no DB-wide lock held — only the final install takes db.mu.
func (db *DB) flushLoop() {
	defer close(db.flushDone)
	for {
		select {
		case <-db.flushCh:
			for db.flushOne() {
			}
		case <-db.flushStop:
			return
		}
	}
}

// flushOne flushes the oldest immutable memtable; reports work done.
func (db *DB) flushOne() bool {
	db.mu.RLock()
	if db.closed || db.flushErr != nil || len(db.imm) == 0 {
		db.mu.RUnlock()
		return false
	}
	m := db.imm[0]
	db.mu.RUnlock()

	meta, err := db.buildTable(m)
	if err != nil {
		db.failFlush(err)
		return false
	}
	r, err := openTable(db.opts.Dir, meta, db.cache)
	if err != nil {
		os.Remove(tableFileName(db.opts.Dir, meta.Num))
		db.failFlush(err)
		return false
	}

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		r.unref()
		os.Remove(tableFileName(db.opts.Dir, meta.Num))
		return false
	}
	cur := db.current
	newMan := cur.man.clone()
	newMan.NextFile = db.nextFile.Load()
	newMan.LastSeq = m.maxSeq
	newMan.Levels[0] = append(newMan.Levels[0], meta)
	if err := newMan.save(db.opts.Dir); err != nil {
		db.mu.Unlock()
		r.unref()
		os.Remove(tableFileName(db.opts.Dir, meta.Num))
		db.failFlush(err)
		return false
	}
	db.current = cur.successor(newMan, map[uint64]*tableReader{meta.Num: r})
	db.imm = append([]*memtable(nil), db.imm[1:]...)
	db.flushCond.Broadcast()
	db.mu.Unlock()
	cur.unref()

	db.flushes.Add(1)
	db.flushBytes.Add(meta.Size)
	if db.wlog != nil && m.walKeepSeg > 0 {
		if l, ok := db.wlog.(wal.Rotator); ok {
			// Best-effort space reclamation; replay filters records with
			// seq <= manifest.LastSeq, so a leftover segment is harmless.
			l.RemoveBefore(m.walKeepSeg)
		}
	}
	db.triggerCompaction()
	return true
}

// buildTable writes memtable m to a new L0 SSTable without holding any DB
// lock (m is sealed, hence immutable).
func (db *DB) buildTable(m *memtable) (tableMeta, error) {
	num := db.allocFileNum()
	tb, err := newTableBuilder(tableFileName(db.opts.Dir, num), db.opts.BlockBytes, db.opts.BloomBitsPerKey)
	if err != nil {
		return tableMeta{}, err
	}
	it := m.sl.iter()
	for it.next() {
		if err := tb.add(it.key(), it.entry()); err != nil {
			tb.abandon()
			return tableMeta{}, err
		}
	}
	return tb.finish(num)
}

// failFlush records a sticky background-flush error. Writers surface it on
// their next rotation; Flush and Close return it.
func (db *DB) failFlush(err error) {
	db.mu.Lock()
	if db.flushErr == nil {
		db.flushErr = err
	}
	db.flushCond.Broadcast()
	db.mu.Unlock()
}
