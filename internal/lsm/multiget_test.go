package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func mgKeys(keys ...string) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = []byte(k)
	}
	return out
}

// TestMultiGetAcrossLocations: one MultiGet resolving keys that live in
// the active memtable, a sealed memtable, L0 tables and L1 — plus absent
// keys — must agree with per-key Gets everywhere.
func TestMultiGetAcrossLocations(t *testing.T) {
	db := testDB(t, Options{
		DisableWAL:          true,
		L0CompactionTrigger: 2,
		MemtableBytes:       1 << 20,
	})
	// L1 data: flush twice then compact.
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("deep%03d", i)), []byte(fmt.Sprintf("dv%03d", i)))
	}
	db.Flush()
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("mid%03d", i)), []byte(fmt.Sprintf("mv%03d", i)))
	}
	db.Flush()
	db.CompactAll()
	// Fresh L0 run with overwrites of deep keys (newest must win).
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("deep%03d", i)), []byte(fmt.Sprintf("NEW%03d", i)))
	}
	db.Flush()
	// Memtable data.
	db.Put([]byte("hot1"), []byte("h1"))
	db.Delete([]byte("mid005"))

	keys := mgKeys("deep000", "deep005", "deep040", "mid005", "mid010", "hot1", "ghost", "deep049")
	vals, found, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		gv, gerr := db.Get(k)
		if gerr == ErrNotFound {
			if found[i] {
				t.Fatalf("key %s: MultiGet found, Get absent", k)
			}
			continue
		}
		if gerr != nil {
			t.Fatal(gerr)
		}
		if !found[i] {
			t.Fatalf("key %s: Get found %q, MultiGet absent", k, gv)
		}
		if !bytes.Equal(vals[i], gv) {
			t.Fatalf("key %s: MultiGet %q != Get %q", k, vals[i], gv)
		}
	}
	if !found[0] || string(vals[0]) != "NEW000" {
		t.Fatalf("newest L0 version lost: %q %v", vals[0], found[0])
	}
	if found[3] {
		t.Fatal("tombstoned mid005 reported present")
	}
	if found[6] {
		t.Fatal("ghost key reported present")
	}
}

// TestMultiGetEmptyValuesAndTombstones: present-empty values round-trip
// with found=true and a non-nil-length-zero distinction from absence.
func TestMultiGetEmptyValuesAndTombstones(t *testing.T) {
	db := testDB(t, Options{DisableWAL: true})
	db.Put([]byte("empty-mem"), []byte{})
	db.Put([]byte("empty-disk"), []byte{})
	db.Put([]byte("dead"), []byte("v"))
	db.Flush()
	db.Delete([]byte("dead")) // tombstone in memtable shadows table value

	vals, found, err := db.MultiGet(mgKeys("empty-mem", "empty-disk", "dead", "never"))
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || len(vals[0]) != 0 {
		t.Fatalf("empty-mem: %v %q", found[0], vals[0])
	}
	if !found[1] || len(vals[1]) != 0 {
		t.Fatalf("empty-disk: %v %q", found[1], vals[1])
	}
	if found[2] {
		t.Fatal("tombstone visible through MultiGet")
	}
	if found[3] {
		t.Fatal("absent key found")
	}

	// Tombstone persisted to a newer table must also win.
	db.Flush()
	_, found, err = db.MultiGet(mgKeys("dead"))
	if err != nil || found[0] {
		t.Fatalf("flushed tombstone visible: %v %v", found[0], err)
	}
}

func TestMultiGetDuplicateAndUnsortedKeys(t *testing.T) {
	db := testDB(t, Options{DisableWAL: true})
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("dup%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	db.Flush()
	keys := mgKeys("dup150", "dup003", "dup150", "zzz", "dup003", "dup000")
	vals, found, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"v150", "v003", "v150", "", "v003", "v000"}
	for i := range keys {
		if i == 3 {
			if found[3] {
				t.Fatal("zzz found")
			}
			continue
		}
		if !found[i] || string(vals[i]) != want[i] {
			t.Fatalf("key %s: %v %q want %q", keys[i], found[i], vals[i], want[i])
		}
	}
}

func TestMultiGetEmptyAndClosed(t *testing.T) {
	db := testDB(t, Options{DisableWAL: true})
	vals, found, err := db.MultiGet(nil)
	if err != nil || len(vals) != 0 || len(found) != 0 {
		t.Fatalf("nil keys: %v %v %v", vals, found, err)
	}
	db2, _ := Open(Options{Dir: t.TempDir(), DisableWAL: true})
	db2.Close()
	if _, _, err := db2.MultiGet(mgKeys("x")); err != ErrDBClosed {
		t.Fatalf("closed: %v", err)
	}
}

// TestMultiGetMatchesGetProperty: randomized cross-check over a mixed
// workload with flushes and compactions.
func TestMultiGetMatchesGetProperty(t *testing.T) {
	db := testDB(t, Options{
		DisableWAL:          true,
		MemtableBytes:       4 << 10,
		L0CompactionTrigger: 2,
	})
	rng := rand.New(rand.NewSource(42))
	ref := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("pp%03d", rng.Intn(300))
		switch rng.Intn(10) {
		case 0:
			db.Delete([]byte(k))
			delete(ref, k)
		default:
			v := fmt.Sprintf("val%06d", i)
			db.Put([]byte(k), []byte(v))
			ref[k] = v
		}
		if i == 1000 {
			db.Flush()
			db.CompactAll()
		}
	}
	var keys [][]byte
	for i := 0; i < 300; i++ {
		keys = append(keys, []byte(fmt.Sprintf("pp%03d", i)))
	}
	vals, found, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want, ok := ref[string(k)]
		if ok != found[i] {
			t.Fatalf("key %s: present=%v want %v", k, found[i], ok)
		}
		if ok && string(vals[i]) != want {
			t.Fatalf("key %s: %q want %q", k, vals[i], want)
		}
	}
}

// TestConcurrentReadsDuringFlushAndCompaction is the -race stress for the
// snapshot read path: Gets and MultiGets run non-stop while writers force
// memtable rotations, background flushes and compaction installs. Every
// read must see either the old or the new version of a key — never an
// error, a torn value, or a closed table.
func TestConcurrentReadsDuringFlushAndCompaction(t *testing.T) {
	const l0Trigger = 2
	db := testDB(t, Options{
		DisableWAL:          true,
		MemtableBytes:       4 << 10,
		L0CompactionTrigger: l0Trigger,
		BaseLevelBytes:      16 << 10,
		TargetFileBytes:     8 << 10,
	})
	const keyspace = 200
	val := func(gen int) []byte { return bytes.Repeat([]byte{byte('a' + gen%26)}, 100) }
	// Seed so every key always exists.
	for i := 0; i < keyspace; i++ {
		db.Put([]byte(fmt.Sprintf("st%04d", i)), val(0))
	}
	stop := make(chan struct{})
	// roomInL0 waits while L0 is at its trigger. The compactor serves
	// L0 → L1 first, so writers that keep L0 there starve every L1 → L2
	// pick, the only kind that can be a move. False once stop is closed.
	roomInL0 := func() bool {
		for db.Stats().LevelFiles[0] >= l0Trigger {
			select {
			case <-stop:
				return false
			case <-time.After(time.Millisecond):
			}
		}
		return true
	}
	var writerWg, wg sync.WaitGroup
	writerWg.Add(1)
	go func() { // writer: constant churn forcing rotations + compactions
		defer writerWg.Done()
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < keyspace; i++ {
				if !roomInL0() {
					return
				}
				if err := db.Put([]byte(fmt.Sprintf("st%04d", i)), val(gen)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) { // point readers
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("st%04d", rng.Intn(keyspace)))
				v, err := db.Get(k)
				if err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
				if len(v) != 100 || bytes.Count(v, v[:1]) != 100 {
					t.Errorf("torn value for %s: %q", k, v)
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() { // batch reader
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 500; i++ {
			keys := make([][]byte, 16)
			for j := range keys {
				keys[j] = []byte(fmt.Sprintf("st%04d", rng.Intn(keyspace)))
			}
			vals, found, err := db.MultiGet(keys)
			if err != nil {
				t.Errorf("multiget: %v", err)
				return
			}
			for j := range keys {
				if !found[j] {
					t.Errorf("key %s vanished", keys[j])
					return
				}
				if len(vals[j]) != 100 {
					t.Errorf("torn multiget value for %s", keys[j])
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // scanner: consistent snapshots under churn
		defer wg.Done()
		for i := 0; i < 30; i++ {
			kvs, err := db.Scan([]byte("st0000"), []byte("st0050"), 0)
			if err != nil {
				t.Errorf("scan: %v", err)
				return
			}
			if len(kvs) != 50 {
				t.Errorf("scan saw %d keys, want 50", len(kvs))
				return
			}
		}
	}()
	// Two loaders, each with its own ascending run of new keys (the
	// ledger's prefill): their tables overlap nothing below them, so the
	// compactor re-levels them by manifest edit while every reader above
	// holds a version. A loader reads back a key it wrote a while ago,
	// which by then sits in a table that has been moved.
	const ascending = 1500
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 + w)))
			for i := w; i < ascending; i += 2 {
				roomInL0()
				if err := db.Put([]byte(fmt.Sprintf("up%06d", i)), val(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				old := w + 2*rng.Intn(i/2+1) // this loader's, written at or before i
				if v, err := db.Get([]byte(fmt.Sprintf("up%06d", old))); err != nil || !bytes.Equal(v, val(old)) {
					t.Errorf("get up%06d: %q, %v", old, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait() // readers finish first…
	close(stop)
	writerWg.Wait() // …then the writer drains
	st := db.Stats()
	if st.Flushes == 0 {
		t.Fatal("stress never exercised a background flush")
	}
	if st.Moves == 0 {
		t.Fatal("stress never exercised a table move")
	}
	for i := 0; i < ascending; i++ {
		k := []byte(fmt.Sprintf("up%06d", i))
		if v, err := db.Get(k); err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %s after the run: %q, %v", k, v, err)
		}
	}
}

// TestMultiGetSharesOneBlockDecode pins the reason MultiGet exists: 16
// adjacent keys in one data block of one table cost one block-cache lookup
// as a MultiGet, where 16 Gets cost 16.
func TestMultiGetSharesOneBlockDecode(t *testing.T) {
	db := testDB(t, Options{DisableWAL: true})
	b := &Batch{}
	for i := 0; i < 1000; i++ {
		b.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%04d", 100+i))
	}
	db.mu.RLock()
	tables := db.current.man.Levels[0]
	if len(tables) != 1 {
		db.mu.RUnlock()
		t.Fatalf("%d tables in L0, want 1", len(tables))
	}
	r := db.current.readers[tables[0].Num]
	db.mu.RUnlock()
	blk := sort.Search(len(r.index), func(i int) bool { return bytes.Compare(r.index[i].lastKey, keys[0]) >= 0 })
	if blk == len(r.index) || bytes.Compare(keys[15], r.index[blk].lastKey) > 0 || (blk > 0 && bytes.Compare(keys[0], r.index[blk-1].lastKey) <= 0) {
		t.Fatal("the 16 keys do not share one data block")
	}

	lookups := func() int64 { st := db.Stats(); return st.CacheHits + st.CacheMisses }
	if n := lookups(); n != 0 {
		t.Fatalf("block cache not cold: %d lookups before the reads", n)
	}
	_, found, err := db.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("MultiGet missed %s", keys[i])
		}
	}
	if n := lookups(); n != 1 {
		t.Fatalf("MultiGet of 16 keys in one block made %d block-cache lookups, want 1", n)
	}
	for _, k := range keys {
		if _, err := db.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if n := lookups() - 1; n != 16 {
		t.Fatalf("16 Gets made %d block-cache lookups, want 16", n)
	}
}
