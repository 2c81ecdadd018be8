package lsm

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// FuzzOpenTable hands arbitrary bytes to everything that decodes a table
// file: the footer, the index block, the bloom block and, through get and a
// full iterator walk, the data blocks. A table file is read after every
// restart and may have been damaged at rest, so no input may panic, none
// may make the reader hold more than a small multiple of the file's own
// size, and damage shows as a failed open or as ErrBadBlock, never as data.
func FuzzOpenTable(f *testing.F) {
	// One real table, small enough that the engine can minimise around it.
	seedDir := f.TempDir()
	tb, err := newTableBuilder(tableFileName(seedDir, 1), 128, 10)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		e := memEntry{seq: uint64(i + 1), value: []byte(fmt.Sprintf("value-%d", i))}
		if i%9 == 0 {
			e = memEntry{seq: uint64(i + 1), kind: kindDelete}
		}
		if err := tb.add([]byte(fmt.Sprintf("k%04d", i)), e); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := tb.finish(1); err != nil {
		f.Fatal(err)
	}
	table, err := os.ReadFile(tableFileName(seedDir, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(table)
	f.Add(table[len(table)-footerSize:]) // a footer whose offsets point past what precedes it
	f.Add([]byte{})

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(tableFileName(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openTable(dir, tableMeta{Num: 1, Size: int64(len(data))}, nil)
		if err != nil {
			return
		}
		defer r.unref()
		if len(r.index)*minIndexEntry > len(data) || len(r.bloom.bits) > len(data) {
			t.Fatalf("%d B file opened with %d index entries and %d bloom bytes", len(data), len(r.index), len(r.bloom.bits))
		}
		for _, e := range r.index {
			if int(e.length) > len(data) {
				t.Fatalf("%d B file has a block of %d B", len(data), e.length)
			}
			if _, _, err := r.get(e.lastKey); err != nil && !errors.Is(err, ErrBadBlock) {
				t.Fatalf("get: %v", err)
			}
		}
		it := r.iter()
		for n := 0; it.next(); n++ {
			if n > len(data) {
				t.Fatalf("iterator yielded more entries than the file has bytes")
			}
		}
		if it.err != nil && !errors.Is(it.err, ErrBadBlock) {
			t.Fatalf("iter: %v", it.err)
		}
	})
}
