package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"tierbase/internal/wal"
)

// CompactionStyle selects the merge policy.
type CompactionStyle int

// Compaction styles.
const (
	// Leveled compaction (RocksDB/LevelDB style): non-overlapping runs per
	// level, L0 overlapping. Better read amplification; the default, and
	// the style attributed to the HBase-like baseline.
	Leveled CompactionStyle = iota
	// SizeTiered compaction (Cassandra style): similar-sized runs merged
	// together, all runs overlapping. Better write amplification.
	SizeTiered
)

// Options configures a DB.
type Options struct {
	Dir                 string
	MemtableBytes       int64 // flush threshold; default 4 MiB
	MaxImmutables       int   // sealed-memtable backlog before writers wait; default 2
	BlockBytes          int   // data block target; default 4 KiB
	BlockCacheBytes     int64 // default 8 MiB; 0 uses default, -1 disables
	L0CompactionTrigger int   // default 4
	BaseLevelBytes      int64 // L1 size limit; default 16 MiB
	MaxLevels           int   // default 7
	TargetFileBytes     int64 // compaction output split size; default 2 MiB
	Compaction          CompactionStyle
	DisableWAL          bool
	WALSyncPolicy       wal.SyncPolicy
	// WALFactory overrides WAL construction (e.g. a fault-injecting or
	// tracing wrapper around a Log). If nil, a file-backed log in Dir/wal
	// is used.
	WALFactory func(dir string) (wal.Appender, error)
}

func (o *Options) fill() {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxImmutables <= 0 {
		o.MaxImmutables = 2
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 4 << 10
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 8 << 20
	}
	if o.L0CompactionTrigger <= 0 {
		o.L0CompactionTrigger = 4
	}
	if o.BaseLevelBytes <= 0 {
		o.BaseLevelBytes = 16 << 20
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 7
	}
	if o.TargetFileBytes <= 0 {
		o.TargetFileBytes = 2 << 20
	}
}

// DB errors.
var (
	ErrNotFound = errors.New("lsm: key not found")
	ErrDBClosed = errors.New("lsm: db closed")
)

// DB is the LSM-tree key-value store.
//
// Concurrency model (three lock domains, never held across disk reads on
// the Get path):
//
//   - commitMu serializes the write pipeline: one Apply commits at a time,
//     so WAL appends happen in sequence-number order, and memtable rotation
//     (sealing) only happens under it.
//   - mu guards the mutable snapshot state — active/sealed memtables, the
//     current table version, the sequence counter, closed — in SHORT
//     critical sections only. Readers capture a refcounted view under
//     RLock and then run entirely lock-free against immutable state.
//   - compactMu serializes compaction rounds (unchanged from the seed).
//
// Background work: flushLoop turns sealed memtables into L0 tables (so a
// writer tripping MemtableBytes never builds an SSTable inline), and
// compactionLoop merges tables. Both install new versions copy-on-write;
// in-flight reads keep superseded tables alive via refcounts.
type DB struct {
	opts Options

	mu        sync.RWMutex
	mem       *memtable   // active
	imm       []*memtable // sealed, oldest first
	current   *version    // table hierarchy snapshot
	seq       uint64
	closed    bool
	flushErr  error      // sticky background-flush failure
	flushCond *sync.Cond // broadcast on flush install / failure (waits use mu)

	wlog   wal.Appender
	walDir string
	cache  *blockCache

	// Write pipeline: the commit lock, and the WAL encode scratch it guards.
	commitMu sync.Mutex
	walBuf   []byte

	// nextFile allocates table file numbers; shared by the background
	// flusher and the background compactor, so it must be atomic.
	nextFile atomic.Uint64

	flushCh   chan struct{}
	flushStop chan struct{}
	flushDone chan struct{}

	compactCh   chan struct{}
	compactDone chan struct{}
	compactMu   sync.Mutex // serializes compaction rounds

	flushes         atomic.Int64
	compactions     atomic.Int64 // compaction rounds installed: merges and moves
	moves           atomic.Int64
	flushBytes      atomic.Int64 // table bytes written by flushes
	compactionBytes atomic.Int64 // table bytes written by merges
	writeBytes      atomic.Int64
	multiGets       atomic.Int64
	badBlocks       atomic.Int64 // reads that hit a checksum-mismatched block
}

// Open opens (creating if needed) a DB at opts.Dir and recovers state from
// the manifest and WAL.
func Open(opts Options) (*DB, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, errors.New("lsm: Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: mkdir: %w", err)
	}
	man, err := loadManifest(opts.Dir, opts.MaxLevels)
	if err != nil {
		return nil, err
	}
	db := &DB{
		opts:        opts,
		mem:         newMemtable(),
		seq:         man.LastSeq,
		flushCh:     make(chan struct{}, 1),
		flushStop:   make(chan struct{}),
		flushDone:   make(chan struct{}),
		compactCh:   make(chan struct{}, 1),
		compactDone: make(chan struct{}),
	}
	db.flushCond = sync.NewCond(&db.mu)
	db.nextFile.Store(man.NextFile)
	if opts.BlockCacheBytes > 0 {
		db.cache = newBlockCache(opts.BlockCacheBytes)
	}
	readers := make(map[uint64]*tableReader)
	abort := func() {
		for _, r := range readers {
			r.unref()
		}
	}
	for _, lvl := range man.Levels {
		for i, meta := range lvl {
			r, err := openTable(opts.Dir, meta, db.cache)
			if err != nil {
				abort()
				return nil, err
			}
			readers[meta.Num] = r
			// A new write must outnumber every version in the tables, or it
			// loses to an older version of its key at the next compaction;
			// the manifest's last_seq is not trusted to say so, each table's
			// own max_seq is, and a table listed without one is read (once:
			// the next manifest saved records what the read found).
			if meta.MaxSeq == 0 {
				lvl[i].MaxSeq = r.maxSeq()
			}
			db.seq = max(db.seq, lvl[i].MaxSeq)
		}
	}
	db.current = newVersion(man, readers)
	db.walDir = opts.Dir + "/wal"
	if !opts.DisableWAL {
		// Replay records newer than the last flushed sequence. Older
		// records (from WAL segments not yet reclaimed at crash time) are
		// already in SSTables and are skipped.
		if err := wal.Replay(db.walDir, func(p []byte) error {
			return decodeBatchRecord(p, func(seq uint64, kind entryKind, key, val []byte) error {
				if seq > db.seq {
					db.seq = seq
				}
				if seq <= man.LastSeq {
					return nil
				}
				db.mem.apply(seq, kind, key, val)
				return nil
			})
		}); err != nil {
			db.current.unref()
			return nil, err
		}
		if opts.WALFactory != nil {
			db.wlog, err = opts.WALFactory(db.walDir)
		} else {
			db.wlog, err = wal.Open(wal.Options{Dir: db.walDir, Policy: opts.WALSyncPolicy})
		}
		if err != nil {
			db.current.unref()
			return nil, err
		}
	}
	go db.flushLoop()
	go db.compactionLoop()
	return db, nil
}

// allocFileNum returns a fresh table file number.
func (db *DB) allocFileNum() uint64 { return db.nextFile.Add(1) - 1 }

// batchPool recycles the one-op batch envelope used by Put/Delete. Only
// the Batch struct and its ops slice are reused — the per-op key/value
// slab is always fresh, because the memtable aliases it after Apply.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// Put stores key=value. It is a one-op Apply. The batch envelope is pooled,
// so a Put costs one allocation (the combined key/value slab).
func (db *DB) Put(key, value []byte) error {
	b := batchPool.Get().(*Batch)
	b.Reset()
	b.Put(key, value)
	err := db.Apply(b)
	batchPool.Put(b)
	return err
}

// Delete removes key (writes a tombstone).
func (db *DB) Delete(key []byte) error {
	b := batchPool.Get().(*Batch)
	b.Reset()
	b.Delete(key)
	err := db.Apply(b)
	batchPool.Put(b)
	return err
}

// Get fetches the value for key, or ErrNotFound. The returned slice is a
// private copy — it never aliases memtable or block-cache memory, for
// every hit location (memtable, L0, L1+), so callers may retain or modify
// it freely. Get captures a snapshot in O(1) under a read lock and does
// all bloom/index/block I/O lock-free: it never blocks a flush install,
// and a flush never blocks it.
func (db *DB) Get(key []byte) ([]byte, error) {
	v, err := db.acquireView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	e, ok, err := v.get(key, nil)
	if err != nil {
		return nil, db.noteReadErr(err)
	}
	if !ok || e.kind == kindDelete {
		return nil, ErrNotFound
	}
	cp := make([]byte, len(e.value))
	copy(cp, e.value)
	return cp, nil
}

// MultiGet resolves many keys against one snapshot view (see view for the
// isolation contract). It returns values and presence flags aligned with
// keys: found[i] reports whether keys[i] exists (a present empty value is
// found with an empty, non-nil slice). All returned values are private
// copies — they never alias memtable or block-cache memory.
//
// It is the walk Get takes, once per key in key order, with one iterator
// per table shared by all the keys: against len(keys) Gets it saves the
// snapshot acquisitions, walks each table's index front to back once, and
// decodes a data block once for all the keys that land in it.
func (db *DB) MultiGet(keys [][]byte) (vals [][]byte, found []bool, err error) {
	v, err := db.acquireView()
	if err != nil {
		return nil, nil, err
	}
	defer v.release()
	db.multiGets.Add(1)

	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	its := make(map[uint64]*tableIterator)
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	for _, i := range order {
		e, ok, err := v.get(keys[i], its)
		if err != nil {
			return nil, nil, db.noteReadErr(err)
		}
		if ok && e.kind != kindDelete {
			found[i] = true
			vals[i] = make([]byte, len(e.value))
			copy(vals[i], e.value)
		}
	}
	return vals, found, nil
}

// noteReadErr counts checksum-mismatched blocks surfacing from the read
// path (Stats.BadBlocks → INFO storage), so silent media corruption is
// observable before it becomes an incident. The error still propagates:
// a corrupt block is never served as data.
func (db *DB) noteReadErr(err error) error {
	if errors.Is(err, errBadBlock) {
		db.badBlocks.Add(1)
	}
	return err
}

// Flush seals the active memtable (if non-empty) and waits until the
// background flusher has drained every sealed memtable to L0 tables.
func (db *DB) Flush() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	return db.drain()
}

// drain seals the active memtable, if it holds anything, and waits until
// the immutable-memtable backlog is empty: Flush, and Close before it stops
// the flusher. A failed seal still waits for the memtables sealed before
// it, and is the error returned. Caller holds commitMu, so ErrDBClosed
// means the DB was closed before the call.
func (db *DB) drain() error {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return ErrDBClosed
	}
	hasData := db.mem.sl.entries() > 0
	db.mu.RUnlock()
	var err error
	if hasData {
		err = db.rotate()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for len(db.imm) > 0 && db.flushErr == nil && !db.closed {
		db.flushCond.Wait()
	}
	if err == nil {
		err = db.flushErr
	}
	return err
}

func (db *DB) triggerCompaction() {
	select {
	case db.compactCh <- struct{}{}:
	default:
	}
}

// Stats summarizes DB state for monitoring and cost measurement.
type Stats struct {
	MemtableBytes  int64
	Immutables     int   // sealed memtables awaiting background flush
	ImmutableBytes int64 // bytes held in sealed memtables
	DiskBytes      int64
	TableCount     int
	LevelFiles     []int
	LevelBytes     []int64
	Flushes        int64
	Compactions    int64 // compaction rounds installed, moves included
	WriteBytes     int64 // key and value bytes applied
	MultiGets      int64
	BadBlocks      int64 // reads failed on a checksum-mismatched SSTable block
	CacheHits      int64
	CacheMisses    int64
	CacheBytes     int64
	SequenceNumber uint64
	// Moves is the part of Compactions that rewrote nothing (a table
	// re-levelled by a manifest edit). FlushBytes and CompactionBytes are
	// the table bytes flushes and merges wrote, so write amplification is
	// (FlushBytes + CompactionBytes) / WriteBytes.
	Moves           int64
	FlushBytes      int64
	CompactionBytes int64
}

// Stats returns a snapshot of internal counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	st := Stats{
		MemtableBytes:  db.mem.sl.approximateSize(),
		Immutables:     len(db.imm),
		LevelFiles:     make([]int, len(db.current.man.Levels)),
		LevelBytes:     make([]int64, len(db.current.man.Levels)),
		SequenceNumber: db.seq,
	}
	for _, m := range db.imm {
		st.ImmutableBytes += m.sl.approximateSize()
	}
	for l, lvl := range db.current.man.Levels {
		for _, t := range lvl {
			st.DiskBytes += t.Size
			st.TableCount++
			st.LevelFiles[l]++
			st.LevelBytes[l] += t.Size
		}
	}
	db.mu.RUnlock()
	st.Flushes = db.flushes.Load()
	st.Compactions = db.compactions.Load()
	st.Moves = db.moves.Load()
	st.FlushBytes = db.flushBytes.Load()
	st.CompactionBytes = db.compactionBytes.Load()
	st.WriteBytes = db.writeBytes.Load()
	st.MultiGets = db.multiGets.Load()
	st.BadBlocks = db.badBlocks.Load()
	if db.cache != nil {
		st.CacheHits, st.CacheMisses, st.CacheBytes = db.cache.stats()
	}
	return st
}

// Close flushes all memtables, stops the background goroutines and
// releases all resources. In-flight snapshot reads finish against their
// captured views; their table readers close when the last view releases.
func (db *DB) Close() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	ferr := db.drain()
	if errors.Is(ferr, ErrDBClosed) {
		return nil
	}
	db.mu.Lock()
	db.closed = true
	cur := db.current
	db.flushCond.Broadcast()
	db.mu.Unlock()
	close(db.flushStop)
	<-db.flushDone
	close(db.compactCh)
	<-db.compactDone
	var werr error
	if db.wlog != nil {
		werr = db.wlog.Close()
	}
	cur.unref()
	if ferr != nil {
		return ferr
	}
	return werr
}
