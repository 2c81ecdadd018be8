package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tierbase/internal/wal"
)

// crashCopyTree copies dir as a crashed process would leave it: every file
// as the OS has it, nothing closed, nothing flushed for the occasion.
func crashCopyTree(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) { // a flush or compaction removed it mid-walk
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		src, err := os.Open(path)
		if os.IsNotExist(err) {
			return nil
		} else if err != nil {
			return err
		}
		defer src.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, src)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// reclaimAudit is a WAL that checks the order reclamation rests on: when the
// LSM asks for the segments before seq to be removed, the manifest on disk
// must already cover every record that was appended to them, i.e. the
// tables holding those records are installed.
type reclaimAudit struct {
	*wal.Log
	t   *testing.T
	dir string // the DB's, where the manifest is

	mu     sync.Mutex
	seg    int            // the active segment
	maxSeq map[int]uint64 // highest sequence appended to each segment
}

func (a *reclaimAudit) Append(p []byte) error {
	// A batch record: 0x00, version, uvarint base, uvarint count.
	base, n := binary.Uvarint(p[2:])
	count, _ := binary.Uvarint(p[2+n:])
	a.mu.Lock()
	a.maxSeq[a.seg] = base + count - 1
	a.mu.Unlock()
	return a.Log.Append(p)
}

func (a *reclaimAudit) Rotate() (int, error) {
	seg, err := a.Log.Rotate()
	a.mu.Lock()
	a.seg = seg
	a.mu.Unlock()
	return seg, err
}

func (a *reclaimAudit) RemoveBefore(seq int) error {
	man, err := loadManifest(a.dir, 7)
	if err != nil {
		a.t.Errorf("manifest: %v", err)
	}
	a.mu.Lock()
	for seg, max := range a.maxSeq {
		if seg < seq && max > man.LastSeq {
			a.t.Errorf("segment %d (records up to seq %d) removed with the manifest at seq %d", seg, max, man.LastSeq)
		}
	}
	a.mu.Unlock()
	return a.Log.RemoveBefore(seq)
}

// TestIntervalSyncCrashAcrossRotations is the storage tier's side of
// SyncInterval's contract, now that a rotation no longer fsyncs the segment
// it seals: with memtables rotating every few KB, every write acked more
// than SyncEvery before a crash is in the crashed files, in a table or in a
// WAL segment sealed or active, and no segment was removed before the
// table that replaces it was installed.
func TestIntervalSyncCrashAcrossRotations(t *testing.T) {
	const every = 10 * time.Millisecond
	dir := t.TempDir()
	var audit *reclaimAudit
	db, err := Open(Options{
		Dir:           dir,
		MemtableBytes: 8 << 10,
		WALFactory: func(walDir string) (wal.Appender, error) {
			l, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncInterval, SyncEvery: every})
			if err != nil {
				return nil, err
			}
			audit = &reclaimAudit{Log: l, t: t, dir: dir, seg: 1, maxSeq: map[int]uint64{}}
			return audit, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("s"), 200)
	key := func(i int) []byte { return []byte(fmt.Sprintf("sync%05d", i)) }
	const n = 600 // ~15 rotations
	for i := 0; i < n; i += 20 {
		b := &Batch{}
		for j := i; j < i+20; j++ {
			b.Put(key(j), val)
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Flushes < 5 {
		t.Fatalf("only %d flushes: the writes did not cross enough rotations", db.Stats().Flushes)
	}
	// Two ticks from now every write above is more than SyncEvery old and
	// a tick has begun after it.
	acked := audit.Syncs()
	for deadline := time.Now().Add(5 * time.Second); audit.Syncs() < acked+2; {
		if time.Now().After(deadline) {
			t.Fatal("the WAL's ticker is not running")
		}
		time.Sleep(every)
	}
	// A crash stops everything at one instant; the copy takes a while. No
	// version can be installed under db.mu, and what an installed version
	// lets go (WAL segments, merged tables) it no longer needs, so the copy
	// is some instant's state even with the flusher and compactor running.
	db.mu.RLock()
	crashDir := crashCopyTree(t, dir)
	db.mu.RUnlock()
	crashed, err := Open(Options{Dir: crashDir})
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer crashed.Close()
	for i := 0; i < n; i++ {
		if v, err := crashed.Get(key(i)); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("%s after the crash: %v", key(i), err)
		}
	}
}
