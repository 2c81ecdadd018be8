package lsm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"tierbase/internal/wal"
)

func testDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDBPutGetDelete(t *testing.T) {
	db := testDB(t, Options{})
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("get: %q %v", v, err)
	}
	if err := db.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k1")); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := db.Get([]byte("never")); err != ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}
}

func TestDBEmptyKeyRejected(t *testing.T) {
	db := testDB(t, Options{})
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestDBOverwrite(t *testing.T) {
	db := testDB(t, Options{})
	db.Put([]byte("k"), []byte("old"))
	db.Put([]byte("k"), []byte("new"))
	v, _ := db.Get([]byte("k"))
	if string(v) != "new" {
		t.Fatalf("got %q", v)
	}
}

func TestDBFlushAndReadFromTable(t *testing.T) {
	db := testDB(t, Options{})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.TableCount == 0 || st.DiskBytes == 0 {
		t.Fatalf("flush produced no tables: %+v", st)
	}
	if st.MemtableBytes != 0 {
		t.Fatalf("memtable not reset: %d", st.MemtableBytes)
	}
	for i := 0; i < 100; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("post-flush get %d: %q %v", i, v, err)
		}
	}
}

func TestDBDeleteAcrossFlush(t *testing.T) {
	db := testDB(t, Options{})
	db.Put([]byte("gone"), []byte("v"))
	db.Flush()
	db.Delete([]byte("gone"))
	db.Flush() // tombstone now in a newer L0 table
	if _, err := db.Get([]byte("gone")); err != ErrNotFound {
		t.Fatalf("tombstone not honored across tables: %v", err)
	}
}

func TestDBAutomaticMemtableRotation(t *testing.T) {
	db := testDB(t, Options{MemtableBytes: 4 << 10})
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), val)
	}
	// Flushes happen in the background now: drain before asserting.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("memtable never rotated")
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("key%04d", i))); err != nil {
			t.Fatalf("get %d after rotation: %v", i, err)
		}
	}
}

// crashStop simulates a process crash: it stops the background goroutines
// and closes file handles WITHOUT flushing memtables — recovery must come
// from the WAL and manifest alone.
func crashStop(db *DB) {
	db.mu.Lock()
	db.closed = true
	cur := db.current
	db.flushCond.Broadcast()
	db.mu.Unlock()
	close(db.flushStop)
	<-db.flushDone
	close(db.compactCh)
	<-db.compactDone
	if db.wlog != nil {
		db.wlog.Close()
	}
	cur.unref()
}

func TestDBWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALSyncPolicy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	db.Delete([]byte("a"))
	db.wlog.Sync()
	crashStop(db)

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("b"))
	if err != nil || string(v) != "2" {
		t.Fatalf("recovered b: %q %v", v, err)
	}
	if _, err := db2.Get([]byte("a")); err != ErrNotFound {
		t.Fatalf("recovered delete: %v", err)
	}
}

func TestDBCleanReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("p%02d", i)), []byte("v"))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 50; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("p%02d", i))); err != nil {
			t.Fatalf("reopen get %d: %v", i, err)
		}
	}
	// Sequence numbers must continue, not restart.
	s1 := db2.Stats().SequenceNumber
	db2.Put([]byte("new"), []byte("v"))
	if db2.Stats().SequenceNumber <= s1 {
		t.Fatal("sequence did not advance after reopen")
	}
}

// TestOpenReadsNoTableBlock: Open numbers the next write from each table's
// max_seq in the manifest and reads no data block, where it read every
// block of every table. A manifest written before tables carried max_seq,
// or one whose sum no longer matches (here every max_seq and last_seq
// lowered), is read the old way, block by block. Either way a write after
// Open outnumbers every version in the tables and survives a compaction.
func TestOpenReadsNoTableBlock(t *testing.T) {
	opts := Options{Dir: t.TempDir(), DisableWAL: true, MemtableBytes: 4 << 10, L0CompactionTrigger: 2,
		BaseLevelBytes: 16 << 10, TargetFileBytes: 8 << 10, BlockBytes: 512}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < 2000; i++ {
		db.Put(key(i%500), append(val, byte(i)))
	}
	db.Flush()
	db.CompactAll()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// reopen opens the DB, counts the blocks Open read and the blocks there
	// are, and overwrites a key that every table's versions must lose to.
	reopen := func(round int) (reads, blocks int) {
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range db.current.readers {
			reads += int(r.reads.Load())
			blocks += len(r.index)
		}
		over := []byte(fmt.Sprintf("round %d", round))
		for i := 0; i < 500; i += 50 {
			db.Put(key(i), over)
		}
		db.Flush()
		db.CompactAll()
		for i := 0; i < 500; i += 50 {
			if v, err := db.Get(key(i)); err != nil || !bytes.Equal(v, over) {
				t.Fatalf("round %d: %s = %q, %v after a compaction, want %q", round, key(i), v, err, over)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return reads, blocks
	}
	// rewrite edits the manifest on disk as edit says.
	rewrite := func(edit func(m *manifest)) {
		m, err := loadManifest(opts.Dir, 7)
		if err != nil {
			t.Fatal(err)
		}
		edit(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath(opts.Dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if reads, blocks := reopen(1); reads != 0 || blocks == 0 {
		t.Fatalf("Open read %d of %d table blocks, want none", reads, blocks)
	}
	rewrite(func(m *manifest) { // as written before: no max_seq, no sum
		for _, lvl := range m.Levels {
			for i := range lvl {
				lvl[i].MaxSeq = 0
			}
		}
		m.Sum = 0
	})
	if reads, blocks := reopen(2); reads != blocks {
		t.Fatalf("Open of a manifest without max_seq read %d of %d table blocks, want all", reads, blocks)
	}
	rewrite(func(m *manifest) { // damaged under its sum
		m.Sum, m.LastSeq = m.sum(), 1
		for _, lvl := range m.Levels {
			for i := range lvl {
				lvl[i].MaxSeq = 1
			}
		}
	})
	if reads, blocks := reopen(3); reads != blocks {
		t.Fatalf("Open of a manifest whose sum does not match read %d of %d table blocks, want all", reads, blocks)
	}
}

func TestDBLeveledCompaction(t *testing.T) {
	db := testDB(t, Options{
		MemtableBytes:       2 << 10,
		L0CompactionTrigger: 2,
		BaseLevelBytes:      8 << 10,
		TargetFileBytes:     4 << 10,
	})
	val := bytes.Repeat([]byte("z"), 128)
	const n = 400
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key%05d", i%100)), append(val, byte(i)))
	}
	db.Flush()
	db.CompactAll()
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	// All latest values must survive.
	for i := n - 100; i < n; i++ {
		key := []byte(fmt.Sprintf("key%05d", i%100))
		v, err := db.Get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if v[len(v)-1] != byte(i) {
			t.Fatalf("stale value for %s: last byte %d want %d", key, v[len(v)-1], byte(i))
		}
	}
}

func TestDBTombstonesDroppedAtBottom(t *testing.T) {
	db := testDB(t, Options{
		MemtableBytes:       1 << 10,
		L0CompactionTrigger: 2,
		MaxLevels:           2, // L1 is the bottom: tombstones drop there
		BaseLevelBytes:      1 << 30,
	})
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte("v"), 64))
	}
	for i := 0; i < 50; i++ {
		db.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	db.Flush()
	db.CompactAll()
	for i := 0; i < 50; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%03d", i))); err != ErrNotFound {
			t.Fatalf("key %d resurrected: %v", i, err)
		}
	}
	// After dropping tombstones the bottom level should contain no entries.
	st := db.Stats()
	var bottomBytes int64
	if len(st.LevelBytes) > 1 {
		bottomBytes = st.LevelBytes[1]
	}
	if bottomBytes > 1024 {
		t.Logf("note: bottom level still has %d bytes (ok if some live keys remain)", bottomBytes)
	}
}

func TestDBSizeTieredCompaction(t *testing.T) {
	db := testDB(t, Options{
		Compaction:    SizeTiered,
		MemtableBytes: 1 << 10,
	})
	for i := 0; i < 300; i++ {
		db.Put([]byte(fmt.Sprintf("st%04d", i)), bytes.Repeat([]byte("y"), 64))
	}
	db.Flush()
	db.CompactAll()
	if db.Stats().Compactions == 0 {
		t.Fatal("size-tiered compaction never ran")
	}
	for i := 0; i < 300; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("st%04d", i))); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
}

func TestDBSizeTieredNewestWins(t *testing.T) {
	// Regression: after merging old runs, a newer non-merged run must still
	// take precedence (L0 get must pick by sequence, not file order).
	db := testDB(t, Options{Compaction: SizeTiered, DisableWAL: true})
	db.Put([]byte("k"), []byte("v1"))
	db.Flush()
	db.Put([]byte("k"), []byte("v2"))
	db.Flush()
	db.Put([]byte("k"), []byte("v3"))
	db.Flush()
	db.Put([]byte("k"), []byte("v4"))
	db.Flush()
	db.CompactAll()
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v4" {
		t.Fatalf("got %q %v, want v4", v, err)
	}
}

func TestDBScan(t *testing.T) {
	db := testDB(t, Options{MemtableBytes: 1 << 10})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("s%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("s050"))
	kvs, err := db.Scan([]byte("s040"), []byte("s060"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 19 { // 40..59 minus deleted 50
		t.Fatalf("scan returned %d pairs", len(kvs))
	}
	if string(kvs[0].Key) != "s040" {
		t.Fatalf("first key %q", kvs[0].Key)
	}
	var prev []byte
	for _, kv := range kvs {
		if prev != nil && bytes.Compare(kv.Key, prev) <= 0 {
			t.Fatal("scan not sorted")
		}
		prev = kv.Key
	}
	// Limit applies.
	kvs, _ = db.Scan([]byte("s000"), nil, 5)
	if len(kvs) != 5 {
		t.Fatalf("limit ignored: %d", len(kvs))
	}
	// Unbounded scan sees everything live.
	kvs, _ = db.Scan(nil, nil, 0)
	if len(kvs) != 99 {
		t.Fatalf("full scan %d pairs, want 99", len(kvs))
	}
}

func TestDBScanSeesNewestAcrossLevels(t *testing.T) {
	db := testDB(t, Options{DisableWAL: true})
	db.Put([]byte("x"), []byte("old"))
	db.Flush()
	db.Put([]byte("x"), []byte("new"))
	kvs, err := db.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 1 || string(kvs[0].Value) != "new" {
		t.Fatalf("scan: %v", kvs)
	}
}

func TestDBClosedErrors(t *testing.T) {
	db, _ := Open(Options{Dir: t.TempDir()})
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrDBClosed {
		t.Fatalf("put: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrDBClosed {
		t.Fatalf("get: %v", err)
	}
	if _, err := db.Scan(nil, nil, 0); err != ErrDBClosed {
		t.Fatalf("scan: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDBConcurrentReadWrite(t *testing.T) {
	db := testDB(t, Options{MemtableBytes: 8 << 10, DisableWAL: true})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := []byte(fmt.Sprintf("c%04d", i%500))
			if err := db.Put(k, bytes.Repeat([]byte("w"), 100)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	// Readers
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				k := []byte(fmt.Sprintf("c%04d", rng.Intn(500)))
				if _, err := db.Get(k); err != nil && err != ErrNotFound {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(int64(r))
	}
	// Wait for readers, then stop writer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < 3; i++ {
		// wait for the 3 readers via counter below instead; simple sleep-free join:
		break
	}
	close(stop)
	<-done
}

func TestDBPropertyMatchesMap(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
	}
	f := func(ops []op) bool {
		dir, err := newTempDir()
		if err != nil {
			return false
		}
		defer removeAll(dir)
		// Levels small enough that the ascending phase below overflows L1
		// and its tables are moved, not merged, into L2.
		db, err := Open(Options{
			Dir: dir, MemtableBytes: 1 << 10, DisableWAL: true,
			L0CompactionTrigger: 2, BaseLevelBytes: 4 << 10, TargetFileBytes: 2 << 10,
		})
		if err != nil {
			return false
		}
		defer db.Close()
		ref := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("pk%03d", o.Key%64)
			if o.Delete {
				if db.Delete([]byte(k)) != nil {
					return false
				}
				delete(ref, k)
			} else {
				v := fmt.Sprintf("pv%05d", o.Val)
				if db.Put([]byte(k), []byte(v)) != nil {
					return false
				}
				ref[k] = v
			}
		}
		// Two writers, each with its own ascending run of keys above the
		// random ones, racing each other and the compactor.
		const ascending = 400
		var wg sync.WaitGroup
		var failed atomic.Bool
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < ascending; i += 2 {
					if db.Put([]byte(fmt.Sprintf("qk%05d", i)), []byte(fmt.Sprintf("qv%05d", i))) != nil {
						failed.Store(true)
					}
				}
			}(w)
		}
		wg.Wait()
		if failed.Load() {
			return false
		}
		for i := 0; i < ascending; i++ {
			ref[fmt.Sprintf("qk%05d", i)] = fmt.Sprintf("qv%05d", i)
		}
		db.Flush()
		db.CompactAll()
		if db.Stats().Moves == 0 {
			return false
		}
		for k, v := range ref {
			got, err := db.Get([]byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		kvs, err := db.Scan(nil, nil, 0)
		if err != nil {
			return false
		}
		return len(kvs) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDBStats(t *testing.T) {
	db := testDB(t, Options{})
	db.Put([]byte("k"), []byte("v"))
	st := db.Stats()
	if st.WriteBytes != 2 {
		t.Fatalf("write bytes %d", st.WriteBytes)
	}
	if st.SequenceNumber != 1 {
		t.Fatalf("seq %d", st.SequenceNumber)
	}
}

// helpers avoiding os import churn in the property test

func newTempDir() (string, error) { return mkdirTemp("", "lsmprop") }
