package lsm

import "errors"

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
// Backpressure: when the flusher is maxImmutables memtables behind, the
// rotating writer waits — bounding memory without ever blocking readers
// (waiting releases db.mu; snapshot reads only take it briefly).
func (db *DB) rotate() error {
	// Rotate the WAL first: records of the sealed memtable are wholly in
	// segments older than the new one.
	keepSeg, err := db.wlog.Rotate()
	if err != nil {
		return err
	}
	db.mu.Lock()
	for len(db.imm) >= maxImmutables && db.flushErr == nil && !db.closed {
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

// flushOne flushes the oldest immutable memtable; reports work done. The
// memtable is written as a merge's output is, by writeTables, with no
// tombstone dropped and no cut (one L0 table), and installed as one: an
// edit that appends the table to L0, advances LastSeq to the memtable's and
// takes the memtable off db.imm. A closed DB stops the flush quietly; any
// other failure is sticky (failFlush).
func (db *DB) flushOne() bool {
	db.mu.RLock()
	if db.closed || db.flushErr != nil || len(db.imm) == 0 {
		db.mu.RUnlock()
		return false
	}
	m := db.imm[0]
	db.mu.RUnlock()

	tables, err := db.writeTables(m.sl.iter(), false, 0)
	if err == nil {
		err = db.install(edit{add: tables, level: 0, flushed: m})
	}
	if err != nil {
		if !errors.Is(err, ErrDBClosed) {
			db.failFlush(err)
		}
		return false
	}
	// Best-effort space reclamation; replay filters records with
	// seq <= manifest.LastSeq, so a leftover segment is harmless.
	_ = db.wlog.RemoveBefore(m.walKeepSeg)
	db.triggerCompaction()
	return true
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
