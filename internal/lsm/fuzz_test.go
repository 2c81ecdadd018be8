package lsm

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// FuzzManifest hands arbitrary bytes to Open as the MANIFEST.json of a
// directory that holds four real tables. Open must either fail, or give a
// DB on which Get, Scan, Puts with their flush, CompactAll and Close run
// without panicking — and lose nothing: every pair the first Scan saw,
// with one of its keys overwritten, is still there after the flush and the
// compactions.
func FuzzManifest(f *testing.F) {
	src := f.TempDir()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	tables := []struct {
		num    uint64
		lo, hi int
	}{{1, 0, 20}, {2, 10, 30}, {3, 30, 50}, {4, 50, 70}}
	metas := make([]tableMeta, len(tables))
	seq := uint64(0)
	for i, tt := range tables {
		tb, err := newTableBuilder(tableFileName(src, tt.num), 128)
		if err != nil {
			f.Fatal(err)
		}
		for k := tt.lo; k < tt.hi; k++ {
			seq++
			e := memEntry{seq: seq, value: []byte(fmt.Sprintf("v%d-%d", tt.num, k))}
			if k%7 == 0 {
				e = memEntry{seq: seq, kind: kindDelete}
			}
			if err := tb.add(key(k), e); err != nil {
				f.Fatal(err)
			}
		}
		if metas[i], err = tb.finish(tt.num); err != nil {
			f.Fatal(err)
		}
	}
	seed := func(next, last uint64, levels ...[]tableMeta) {
		m := &manifest{NextFile: next, LastSeq: last, Levels: levels}
		m.Sum = m.sum()
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	t1, t2, t3, t4 := metas[0], metas[1], metas[2], metas[3]
	seed(5, seq, []tableMeta{t1, t2}, []tableMeta{t3}, []tableMeta{t4})              // what a DB writes
	seed(5, seq, []tableMeta{t1}, []tableMeta{t2}, []tableMeta{t3}, []tableMeta{t4}) // more levels than MaxLevels
	seed(2, seq, []tableMeta{t1, t2}, []tableMeta{t3}, []tableMeta{t4})              // next_file below a table's number
	seed(5, seq, nil, []tableMeta{t1, t2}, []tableMeta{t4})                          // overlapping L1 tables
	seed(5, seq, nil, []tableMeta{t3, t1})                                           // L1 out of key order
	seed(5, seq, []tableMeta{t1, t1})                                                // a table named twice
	neg := t3
	neg.Size = -1
	seed(5, seq, nil, []tableMeta{neg})
	seed(1<<64-1, seq, []tableMeta{t1})                               // a next_file that wraps
	seed(5, 0, []tableMeta{t1, t2}, []tableMeta{t3}, []tableMeta{t4}) // last_seq below the tables' versions
	old := []tableMeta{t1, t2, t3, t4}                                // as written before tables carried max_seq and manifests a sum
	for i := range old {
		old[i].MaxSeq = 0
	}
	data, err := json.Marshal(&manifest{NextFile: 5, LastSeq: seq, Levels: [][]tableMeta{old[:2], old[2:3], old[3:]}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"levels":[[{"num":9}]]}`)) // a table that is not there

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, tt := range tables {
			b, err := os.ReadFile(tableFileName(src, tt.num))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(tableFileName(dir, tt.num), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{Dir: dir, DisableWAL: true, MaxLevels: 3, L0CompactionTrigger: 2, BaseLevelBytes: 1, BlockBytes: 128})
		if err != nil {
			return
		}
		for k := 0; k < 72; k += 3 {
			db.Get(key(k))
		}
		before, err := db.Scan(nil, nil, 0)
		if err != nil {
			db.Close()
			return
		}
		// A key the tables already hold is overwritten too: the new version
		// must outrank theirs when the compactions merge them.
		writes := map[string]string{"new": "v"}
		if len(before) > 0 {
			writes[string(before[len(before)/2].Key)] = "over"
		}
		for k, v := range writes {
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		db.CompactAll()
		after, err := db.Scan(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string, len(after))
		for _, kv := range after {
			got[string(kv.Key)] = string(kv.Value)
		}
		want := make(map[string]string, len(before)+len(writes))
		for _, kv := range before {
			want[string(kv.Key)] = string(kv.Value)
		}
		for k, v := range writes {
			want[k] = v
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("after a flush and compaction %q = %q, want %q", k, got[k], v)
			}
		}
	})
}

// FuzzOpenTable hands arbitrary bytes to everything that decodes a table
// file: the footer, the index block, the bloom block and, through get, a
// full iterator walk and forward seeks, the data blocks. A table file is read after every
// restart and may have been damaged at rest, so no input may panic, none
// may make the reader hold more than a small multiple of the file's own
// size, and damage shows as a failed open or as ErrBadBlock, never as data.
func FuzzOpenTable(f *testing.F) {
	// One real table, small enough that the engine can minimise around it.
	seedDir := f.TempDir()
	tb, err := newTableBuilder(tableFileName(seedDir, 1), 128)
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
		if it.err() != nil && !errors.Is(it.err(), ErrBadBlock) {
			t.Fatalf("iter: %v", it.err())
		}
		// The same iterator type, stepped the way MultiGet and a Scan from
		// a start key step it: a forward seek to each block's last key,
		// then one entry on.
		sk := r.iter()
		for _, e := range r.index {
			if sk.seekGE(e.lastKey) {
				sk.next()
			}
		}
		if sk.err() != nil && !errors.Is(sk.err(), ErrBadBlock) {
			t.Fatalf("seekGE: %v", sk.err())
		}
	})
}

// FuzzWALRecord hands arbitrary bytes to decodeBatchRecord, which decodes
// every WAL payload Open replays after a crash. No input may panic; the
// operations it yields may hold no more key and value bytes than the
// record has; and a record it accepts, encoded again by
// encodeBatchRecordInto, decodes to the same operations.
func FuzzWALRecord(f *testing.F) {
	b := &Batch{}
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	b.Put([]byte("k3"), nil)
	b.Put([]byte("k4"), bytes.Repeat([]byte("v"), 200))
	rec := encodeBatchRecordInto(nil, 7, b)
	// The format is fixed: logs written by earlier releases must replay.
	// These are the bytes those releases wrote for these four operations
	// at base sequence 7, when they arrived as two concurrent batches
	// committed as one group.
	golden, _ := hex.DecodeString("0001070400026b3102763101026b320000026b330000026b34c801")
	golden = append(golden, bytes.Repeat([]byte("v"), 200)...)
	if !bytes.Equal(rec, golden) {
		f.Fatalf("batch record changed:\n got %x\nwant %x", rec, golden)
	}
	f.Add(rec)                                      // what Apply writes
	f.Add(rec[:len(rec)-5])                         // a torn tail
	f.Add([]byte{1, byte(kindSet), 1, 'k', 1, 'v'}) // not a batch record: first byte is not 0x00
	f.Fuzz(func(t *testing.T, data []byte) {
		type op struct {
			seq      uint64
			kind     entryKind
			key, val []byte
		}
		decode := func(p []byte) ([]op, error) {
			var ops []op
			err := decodeBatchRecord(p, func(seq uint64, kind entryKind, key, val []byte) error {
				ops = append(ops, op{seq, kind, key, val})
				return nil
			})
			return ops, err
		}
		ops, err := decode(data)
		if err != nil {
			return
		}
		b := &Batch{}
		for _, o := range ops {
			if b.bytes += int64(len(o.key) + len(o.val)); b.bytes > int64(len(data)) {
				t.Fatalf("a %d-byte record decoded to %d bytes of keys and values", len(data), b.bytes)
			}
			b.ops = append(b.ops, batchOp{kind: o.kind, key: o.key, val: o.val})
		}
		var base uint64
		if len(ops) > 0 {
			base = ops[0].seq
		}
		again, err := decode(encodeBatchRecordInto(nil, base, b))
		if err != nil || !reflect.DeepEqual(again, ops) {
			t.Fatalf("record %x decoded to %v, re-encoded to %v, %v", data, ops, again, err)
		}
	})
}
