package faults

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"tierbase/internal/lsm"
	"tierbase/internal/wal"
)

// TestCorruptBlockSurfacesTypedError: a bit flipped in an SSTable data
// block (silent media corruption, injected with FlipBit) must fail the
// read with lsm.ErrBadBlock — never serve the damaged bytes — and count
// in Stats.BadBlocks, which INFO storage reports.
func TestCorruptBlockSurfacesTypedError(t *testing.T) {
	dir := t.TempDir()
	db, err := lsm.Open(lsm.Options{Dir: dir, WALSyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("c"), 128)
	for i := 0; i < 32; i++ {
		if err := db.Put([]byte(fmt.Sprintf("corrupt%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	tables, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(tables) == 0 {
		t.Fatalf("no tables after flush: %v %v", tables, err)
	}
	// Data blocks start at file offset 0; the checksum covers the whole
	// block, so any flipped bit inside it must trip verification. The
	// first read decodes from disk — the block cache holds nothing yet.
	if err := FlipBit(tables[0], 16, 3); err != nil {
		t.Fatal(err)
	}

	if _, err := db.Get([]byte("corrupt0000")); !errors.Is(err, lsm.ErrBadBlock) {
		t.Fatalf("corrupt-block Get returned %v, want ErrBadBlock", err)
	}
	if _, err := db.Get([]byte("corrupt0001")); !errors.Is(err, lsm.ErrBadBlock) {
		t.Fatalf("corrupt-block Get of a second key returned %v, want ErrBadBlock", err)
	}
	if _, _, err := db.MultiGet([][]byte{[]byte("corrupt0002")}); !errors.Is(err, lsm.ErrBadBlock) {
		t.Fatalf("corrupt-block MultiGet returned %v, want ErrBadBlock", err)
	}
	if got := db.Stats().BadBlocks; got != 3 {
		t.Fatalf("BadBlocks = %d, want 3", got)
	}
}
