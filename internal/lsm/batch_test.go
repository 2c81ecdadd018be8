package lsm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/wal"
)

// countingAppender wraps a wal.Appender and counts Append calls. It is the
// probe for the "one batch = one WAL append" contract.
type countingAppender struct {
	inner   wal.Appender
	appends atomic.Int64
	// delay, when set, slows each append so concurrent writers are still
	// waiting on the commit lock while one of them appends.
	delay time.Duration
}

func (c *countingAppender) Append(p []byte) error {
	c.appends.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.inner.Append(p)
}
func (c *countingAppender) Sync() error                { return c.inner.Sync() }
func (c *countingAppender) Close() error               { return c.inner.Close() }
func (c *countingAppender) Rotate() (int, error)       { return c.inner.Rotate() }
func (c *countingAppender) RemoveBefore(seq int) error { return c.inner.RemoveBefore(seq) }

func openCountingDB(t *testing.T, dir string, delay time.Duration) (*DB, *countingAppender) {
	t.Helper()
	ca := &countingAppender{delay: delay}
	db, err := Open(Options{
		Dir: dir,
		WALFactory: func(walDir string) (wal.Appender, error) {
			l, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncNever})
			if err != nil {
				return nil, err
			}
			ca.inner = l
			return ca, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, ca
}

func TestApplyBatchSingleWALAppend(t *testing.T) {
	db, ca := openCountingDB(t, t.TempDir(), 0)
	defer db.Close()
	b := &Batch{}
	for i := 0; i < 16; i++ {
		b.Put([]byte(fmt.Sprintf("bk%02d", i)), []byte(fmt.Sprintf("bv%02d", i)))
	}
	b.Delete([]byte("bk00"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := ca.appends.Load(); got != 1 {
		t.Fatalf("17-op batch made %d WAL appends, want 1", got)
	}
	for i := 1; i < 16; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("bk%02d", i)))
		if err != nil || string(v) != fmt.Sprintf("bv%02d", i) {
			t.Fatalf("get %d: %q %v", i, v, err)
		}
	}
	if _, err := db.Get([]byte("bk00")); err != ErrNotFound {
		t.Fatalf("in-batch delete not applied: %v", err)
	}
}

func TestApplyEmptyAndNilBatch(t *testing.T) {
	db := testDB(t, Options{WALSyncPolicy: wal.SyncNever})
	if err := db.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(&Batch{}); err != nil {
		t.Fatal(err)
	}
	b := &Batch{}
	b.Put(nil, []byte("v"))
	if err := db.Apply(b); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestBatchReuseAfterReset(t *testing.T) {
	db := testDB(t, Options{WALSyncPolicy: wal.SyncNever})
	b := &Batch{}
	b.Put([]byte("r1"), []byte("v1"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if len(b.ops) != 0 {
		t.Fatalf("len after reset: %d", len(b.ops))
	}
	b.Put([]byte("r2"), []byte("v2"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"r1", "r2"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
	}
}

// TestApplyOneWriterPerAppend: Apply commits one writer at a time, so
// concurrent single-key writers each make their own WAL append, even while
// each append is slowed enough for the others to queue behind it, and every
// one of them is in the log: all of them replay after a crash.
func TestApplyOneWriterPerAppend(t *testing.T) {
	dir := t.TempDir()
	db, ca := openCountingDB(t, dir, 2*time.Millisecond)
	const writers = 32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := db.Put([]byte(fmt.Sprintf("ow%03d", i)), []byte("v")); err != nil {
				t.Errorf("put: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := ca.appends.Load(); got != writers {
		t.Fatalf("%d concurrent writers made %d WAL appends, want %d", writers, got, writers)
	}
	crashStop(db)

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < writers; i++ {
		if v, err := db2.Get([]byte(fmt.Sprintf("ow%03d", i))); err != nil || string(v) != "v" {
			t.Fatalf("ow%03d after replay: %q %v", i, v, err)
		}
	}
}

func TestApplyCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALSyncPolicy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("pre"), []byte("old"))
	b := &Batch{}
	b.Put([]byte("x1"), []byte("v1"))
	b.Put([]byte("x2"), []byte(""))
	b.Delete([]byte("pre"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	crashStop(db)

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("x1")); err != nil || string(v) != "v1" {
		t.Fatalf("x1: %q %v", v, err)
	}
	if v, err := db2.Get([]byte("x2")); err != nil || len(v) != 0 {
		t.Fatalf("x2 (empty value): %q %v", v, err)
	}
	if _, err := db2.Get([]byte("pre")); err != ErrNotFound {
		t.Fatalf("batched delete lost: %v", err)
	}
}

// TestApplyAllOrNothingOnTornWAL: a batch whose WAL record is torn by the
// crash (payload cut short) must vanish entirely on reopen — no partial
// application — while earlier records survive.
func TestApplyAllOrNothingOnTornWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALSyncPolicy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("keep"), []byte("v"))
	b := &Batch{}
	for i := 0; i < 8; i++ {
		b.Put([]byte(fmt.Sprintf("torn%d", i)), bytes.Repeat([]byte("t"), 64))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	crashStop(db)

	// Tear the tail: chop bytes off the last WAL segment so the batch
	// record's payload is incomplete (detected by length or CRC).
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-10); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("keep")); err != nil {
		t.Fatalf("pre-batch record lost: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("torn%d", i))); err != ErrNotFound {
			t.Fatalf("torn batch partially applied: key torn%d err=%v", i, err)
		}
	}
}

// TestDecodeBatchRecordCorruptLengths: corrupt length varints (including
// huge ones that would wrap negative if cast to int) must fail decoding
// with an error, never panic during recovery.
func TestDecodeBatchRecordCorruptLengths(t *testing.T) {
	b := &Batch{}
	b.Put([]byte("k"), []byte("v"))
	good := encodeBatchRecordInto(nil, 1, b)
	noop := func(uint64, entryKind, []byte, []byte) error { return nil }
	if err := decodeBatchRecord(good, noop); err != nil {
		t.Fatalf("good record: %v", err)
	}
	// klen varint replaced with 2^63 (wraps negative as int).
	huge := append([]byte{batchRecMarker, batchRecVersion, 1, 1},
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	huge = append([]byte{huge[0], huge[1], huge[2], huge[3], byte(kindSet)}, huge[4:]...)
	if err := decodeBatchRecord(huge, noop); err == nil {
		t.Fatal("huge klen accepted")
	}
	for cut := 1; cut < len(good); cut++ {
		if err := decodeBatchRecord(good[:cut], noop); err == nil {
			t.Fatalf("truncated record (%d bytes) accepted", cut)
		}
	}
}

// TestWALSegmentsReclaimedAfterFlush: flushed memtables release their WAL
// segments (RemoveBefore), so the log does not grow without bound while
// the active memtable keeps its own records recoverable.
func TestWALSegmentsReclaimedAfterFlush(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, MemtableBytes: 4 << 10, WALSyncPolicy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("w"), 256)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("seg%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Everything is flushed: only the active (post-rotation) segment may
	// remain. Allow one straggler for scheduling slack.
	if len(segs) > 2 {
		t.Fatalf("WAL segments not reclaimed: %d remain", len(segs))
	}
	if db.Stats().Flushes < 2 {
		t.Fatalf("expected multiple background flushes, got %d", db.Stats().Flushes)
	}
}

// TestImmutableBacklogBounded: the rotation backpressure keeps at most
// maxImmutables sealed memtables queued.
func TestImmutableBacklogBounded(t *testing.T) {
	db := testDB(t, Options{WALSyncPolicy: wal.SyncNever, MemtableBytes: 2 << 10})
	val := bytes.Repeat([]byte("b"), 128)
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("bp%04d", i)), val); err != nil {
			t.Fatal(err)
		}
		if n := db.Stats().Immutables; n > maxImmutables {
			t.Fatalf("immutable backlog %d exceeds maxImmutables", n)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("bp%04d", i))); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
}

// TestGetValueIsPrivateCopy: mutating a returned value must never corrupt
// the store, wherever the hit came from (memtable, L0 table, block cache).
func TestGetValueIsPrivateCopy(t *testing.T) {
	db := testDB(t, Options{WALSyncPolicy: wal.SyncNever})
	db.Put([]byte("alias"), []byte("pristine"))
	v, _ := db.Get([]byte("alias"))
	copy(v, "XXXXXXXX")
	if got, _ := db.Get([]byte("alias")); string(got) != "pristine" {
		t.Fatalf("memtable hit aliased: %q", got)
	}
	db.Flush()
	v, _ = db.Get([]byte("alias")) // first table read populates block cache
	copy(v, "YYYYYYYY")
	if got, _ := db.Get([]byte("alias")); string(got) != "pristine" {
		t.Fatalf("table/block-cache hit aliased: %q", got)
	}
	vals, found, err := db.MultiGet([][]byte{[]byte("alias")})
	if err != nil || !found[0] {
		t.Fatal(err)
	}
	copy(vals[0], "ZZZZZZZZ")
	if got, _ := db.Get([]byte("alias")); string(got) != "pristine" {
		t.Fatalf("MultiGet hit aliased: %q", got)
	}
}
