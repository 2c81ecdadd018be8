package lsm

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// corruptTableDB returns a DB whose 2000 keys k0000..k1999 sit in one table
// with the block cache off, and with one byte flipped in data block bad.
func corruptTableDB(t *testing.T, bad int) *DB {
	t.Helper()
	db := testDB(t, Options{DisableWAL: true, BlockCacheBytes: -1})
	b := &Batch{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k%04d", i)
		b.Put([]byte(k), []byte("value-of-"+k))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	tables := db.current.man.Levels[0]
	if len(tables) != 1 {
		db.mu.RUnlock()
		t.Fatalf("%d tables in L0, want 1", len(tables))
	}
	r := db.current.readers[tables[0].Num]
	db.mu.RUnlock()
	if len(r.index) <= bad+1 {
		t.Fatalf("table has %d blocks, want more than %d", len(r.index), bad+1)
	}
	blk := r.index[bad]
	f, err := os.OpenFile(tableFileName(db.opts.Dir, r.meta.Num), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := int64(blk.off) + int64(blk.length)/2
	var one [1]byte
	if _, err := f.ReadAt(one[:], at); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xff
	if _, err := f.WriteAt(one[:], at); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestScanFromKeySurfacesBadBlock: a Scan that starts at a key reads the
// same table blocks as one that starts at the beginning, so a block that
// fails its checksum fails it alike and counts in Stats.BadBlocks. It may
// never come back as a short result with a nil error: a paged scan (the
// shape of LSMStorage.FlushAll) would take that for the end of the data.
func TestScanFromKeySurfacesBadBlock(t *testing.T) {
	for _, bad := range []int{0, 1} {
		t.Run(fmt.Sprintf("block%d", bad), func(t *testing.T) {
			db := corruptTableDB(t, bad)
			kvs, err := db.Scan([]byte("k0001"), nil, 0)
			if !errors.Is(err, ErrBadBlock) {
				t.Fatalf("Scan from k0001 over corrupt block %d: %d rows, err %v; want %v", bad, len(kvs), err, ErrBadBlock)
			}
			if got := db.Stats().BadBlocks; got != 1 {
				t.Fatalf("BadBlocks = %d, want 1", got)
			}
		})
	}
	t.Run("paged", func(t *testing.T) {
		db := corruptTableDB(t, 1)
		const page = 100
		var start []byte
		rows := 0
		var err error
		for {
			var kvs []KV
			kvs, err = db.Scan(start, nil, page)
			rows += len(kvs)
			if err != nil || len(kvs) < page {
				break
			}
			start = append(append([]byte(nil), kvs[len(kvs)-1].Key...), 0)
		}
		if rows < page {
			t.Fatalf("the first page failed (%d rows): the corrupt block must lie past it", rows)
		}
		if !errors.Is(err, ErrBadBlock) {
			t.Fatalf("paged scan ended after %d of 2000 rows with err %v; want %v", rows, err, ErrBadBlock)
		}
		if got := db.Stats().BadBlocks; got != 1 {
			t.Fatalf("BadBlocks = %d, want 1", got)
		}
	})
}
