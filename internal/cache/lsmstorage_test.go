package cache

import (
	"fmt"
	"sync/atomic"
	"testing"

	"tierbase/internal/lsm"
	"tierbase/internal/wal"
)

// countingAppender counts WAL appends reaching the storage tier — the
// probe for the "a batch is ONE WAL append" contract.
type countingAppender struct {
	wal.Appender
	appends atomic.Int64
}

func (c *countingAppender) Append(p []byte) error {
	c.appends.Add(1)
	return c.Appender.Append(p)
}

// TestLSMBatchPutSingleWALAppend: a 16-key BatchPut (with a mixed delete)
// reaches the LSM as exactly one write batch — one WAL append — instead of
// the old one-append-per-key loop.
func TestLSMBatchPutSingleWALAppend(t *testing.T) {
	ca := &countingAppender{}
	db, err := lsm.Open(lsm.Options{
		Dir: t.TempDir(),
		WALFactory: func(dir string) (wal.Appender, error) {
			l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
			if err != nil {
				return nil, err
			}
			ca.Appender = l
			return ca, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewLSMStorage(db)

	entries := make(map[string][]byte, 16)
	for i := 0; i < 15; i++ {
		entries[fmt.Sprintf("bw%02d", i)] = []byte(fmt.Sprintf("v%02d", i))
	}
	entries["bw-del"] = nil // nil-deletes contract rides the same batch
	if err := s.BatchPut(entries); err != nil {
		t.Fatal(err)
	}
	if got := ca.appends.Load(); got != 1 {
		t.Fatalf("16-key BatchPut made %d WAL appends, want 1", got)
	}

	if err := s.BatchDelete([]string{"bw00", "bw01", "bw02"}); err != nil {
		t.Fatal(err)
	}
	if got := ca.appends.Load(); got != 2 {
		t.Fatalf("BatchDelete appends: %d total, want 2", got)
	}

	got, err := s.BatchGet([]string{"bw00", "bw03", "bw14", "bw-del", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["bw00"]; ok {
		t.Fatal("deleted key still present")
	}
	if string(got["bw03"]) != "v03" || string(got["bw14"]) != "v14" {
		t.Fatalf("batch get values: %v", got)
	}
	if _, ok := got["ghost"]; ok {
		t.Fatal("ghost present")
	}
}

// TestLSMBatchGetSingleMultiGet: BatchGet resolves through ONE native
// MultiGet walk (not a per-key Get loop), and present-empty values
// round-trip per the Storage contract.
func TestLSMBatchGetSingleMultiGet(t *testing.T) {
	db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewLSMStorage(db)
	if err := s.BatchPut(map[string][]byte{
		"mk1": []byte("v1"), "mk2": {}, "mk3": []byte("v3"),
	}); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().MultiGets
	keys := make([]string, 0, 32)
	for i := 0; i < 29; i++ {
		keys = append(keys, fmt.Sprintf("absent%02d", i))
	}
	keys = append(keys, "mk1", "mk2", "mk3")
	got, err := s.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if walks := db.Stats().MultiGets - before; walks != 1 {
		t.Fatalf("32-key BatchGet did %d MultiGet walks, want 1", walks)
	}
	if len(got) != 3 {
		t.Fatalf("present keys: %d want 3 (%v)", len(got), got)
	}
	if v, ok := got["mk2"]; !ok || v == nil || len(v) != 0 {
		t.Fatalf("present-empty value mangled: %v %v", v, ok)
	}
}
