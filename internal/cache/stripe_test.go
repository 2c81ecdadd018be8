package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"tierbase/internal/engine"
	"tierbase/internal/lsm"
)

// Tests for capacity eviction across stripes, the (value, ok) storage
// contract (present-empty round trips), and tiered BatchDelete counts.

// TestStripedEvictionConcurrentBatchPut churns capacity across stripes
// from many goroutines (meaningful under -race): concurrent batches share
// the eviction hand and must neither trample the stripes' clock hands nor
// let the cache grow past its budget.
func TestStripedEvictionConcurrentBatchPut(t *testing.T) {
	stor := NewMapStorage()
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteThrough, Engine: eng, Storage: stor,
		CacheCapacityBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	val := bytes.Repeat([]byte("x"), 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				entries := make(map[string][]byte, 16)
				for j := 0; j < 16; j++ {
					entries[fmt.Sprintf("churn:%04d", (g*997+i*16+j)%2048)] = val
				}
				if err := tr.BatchPut(entries); err != nil {
					t.Errorf("batchput: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiescent now: the last batch to finish evicted down to the budget.
	if used := eng.MemUsed(); used > tr.opts.CacheCapacityBytes {
		t.Fatalf("cache over capacity after churn: %d > %d", used, tr.opts.CacheCapacityBytes)
	}
	if tr.Stats().Evictions == 0 {
		t.Fatal("no evictions under capacity churn")
	}
	// Evicted keys must still be readable through the storage tier.
	for _, k := range []string{"churn:0000", "churn:1024", "churn:2047"} {
		if v, err := tr.Get(k); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("evicted key %s lost: %v", k, err)
		}
	}
}

// TestSharedHandWriteBackChurn is the -race gate for the shared eviction
// hand: readers, writers, batch writers and batch deleters churn four times
// the capacity under write-back, so every eviction step runs against dirty
// pins and against other goroutines' steps on other stripes. Once writers
// stop and the dirty set is flushed nothing is pinned, and the next miss
// evicts down to the budget.
func TestSharedHandWriteBackChurn(t *testing.T) {
	const capacity, keys = 32 << 10, 768 // ~170 B a key: 4x the capacity
	stor := NewMapStorage()
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteBack, Engine: eng, Storage: stor,
		CacheCapacityBytes: capacity,
		FlushInterval:      time.Millisecond, FlushBatch: 16, MaxDirty: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	val := bytes.Repeat([]byte("x"), 128)
	stor.Put("cold", val)
	key := func(i int) string { return fmt.Sprintf("churn:%04d", i%keys) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				at := g*997 + i*16
				var err error
				switch g % 4 {
				case 0:
					_, err = tr.Get(key(at))
					if err == ErrNotFound {
						err = nil
					}
				case 1:
					err = tr.Set(key(at), val)
				case 2:
					entries := make(map[string][]byte, 16)
					for j := 0; j < 16; j++ {
						entries[key(at+j)] = val
					}
					err = tr.BatchPut(entries)
				case 3:
					_, err = tr.BatchDelete([]string{key(at), key(at + 1)})
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get("cold"); err != nil {
		t.Fatal(err)
	}
	if used := eng.MemUsed(); used > capacity {
		t.Errorf("cache holds %d bytes over a budget of %d with nothing dirty", used, capacity)
	}
	if tr.Stats().Evictions == 0 {
		t.Error("no evictions at 4x the capacity")
	}
}

// TestEvictionFitsBudgetWithMixedSizes feeds a capacity-mode cache four
// times its budget of values from 16 B to 3 KiB, overwrites included. The
// engine keeps records in slab pages and charges a stripe for the slots
// its records occupy, not for the pages behind them, so every eviction
// lowers MemUsed and the eviction loop ends with the cache inside its
// budget; a charge by the page would leave it spinning on stripes whose
// pages never empty, or holding nothing at all.
func TestEvictionFitsBudgetWithMixedSizes(t *testing.T) {
	const capacity = 512 << 10
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteThrough, Engine: eng, Storage: NewMapStorage(),
		CacheCapacityBytes: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sizes := []int{16, 40, 100, 256, 700, 3 << 10}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, fed := 0, 0; fed < 4*capacity; i++ {
			val := bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])
			if err := tr.Set(fmt.Sprintf("mixed:%05d", i%3000), val); err != nil {
				t.Errorf("set: %v", err)
				return
			}
			fed += len(val)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("feeding 4x the budget did not finish: the eviction loop is not making progress")
	}
	if used := eng.MemUsed(); used > capacity {
		t.Errorf("cache holds %d bytes over a budget of %d", used, capacity)
	}
	if tr.Stats().Evictions == 0 {
		t.Error("no evictions at 4x the budget")
	}
	if used := eng.MemUsed(); used < capacity/2 {
		t.Errorf("cache holds %d bytes of a %d budget: evictions are freeing more than they need to", used, capacity)
	}
}

// TestOneStripeMayFillTheBudget: the budget is the store's, not a sixteenth
// of it per stripe. One resident key on every stripe, then a flood of one
// stripe: 16 KiB under a 64 KiB budget evicts nothing (a budget per stripe
// began evicting there at 4 KiB, with the cache three quarters empty), and
// on the way to four times the budget nothing is evicted before the total
// is over it, after which the other stripes' residents go too, idle as they
// are, and the cache ends inside the budget.
func TestOneStripeMayFillTheBudget(t *testing.T) {
	const capacity = 64 << 10
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteThrough, Engine: eng, Storage: NewMapStorage(),
		CacheCapacityBytes: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	residents := map[int]string{}
	for i := 0; len(residents) < eng.NumShards(); i++ {
		k := fmt.Sprintf("resident:%04d", i)
		if si := eng.ShardIndex(k); residents[si] == "" {
			residents[si] = k
			tr.Set(k, []byte("small"))
		}
	}
	hot := eng.ShardIndex("resident:0000")
	big := bytes.Repeat([]byte("y"), 512)
	// flood sets 512 B values on the hot stripe until total bytes went in. A
	// Set may evict only if it took the cache over its budget: it adds its
	// record and at most a doubling of the stripe's index, under 2 KiB.
	fed, next := 0, 0
	flood := func(total int) {
		for ; fed < total; next++ {
			k := fmt.Sprintf("flood:%06d", next)
			if eng.ShardIndex(k) != hot {
				continue
			}
			used, evicted := eng.MemUsed(), tr.Stats().Evictions
			tr.Set(k, big)
			fed += len(big)
			if n := tr.Stats().Evictions - evicted; n > 0 && used+2048 <= capacity {
				t.Fatalf("%d evictions by a Set that found %d of %d bytes resident", n, used, capacity)
			}
		}
	}
	flood(16 << 10)
	if n := tr.Stats().Evictions; n != 0 {
		t.Fatalf("%d evictions with %d of %d bytes resident", n, eng.MemUsed(), capacity)
	}
	flood(4 * capacity)
	if used := eng.MemUsed(); used > capacity {
		t.Errorf("cache holds %d bytes over a budget of %d", used, capacity)
	}
	gone := 0
	for si, k := range residents {
		if si != hot && !eng.Exists(k) {
			gone++
		}
	}
	if gone == 0 {
		t.Errorf("after %d evictions every idle resident of the other stripes is still there: the hand never left stripe %d",
			tr.Stats().Evictions, hot)
	}
}

// TestEmptyValueColdRoundTrip is the regression test for the (value, ok)
// storage contract: SET k "" followed by a cache flush and a cold read
// must return the empty string, not absent, through every tier.
func TestEmptyValueColdRoundTrip(t *testing.T) {
	t.Run("write-through", func(t *testing.T) {
		tr := newWT(t, NewMapStorage())
		testEmptyColdRead(t, tr, func() {})
	})
	t.Run("write-back", func(t *testing.T) {
		tr := newWB(t, NewMapStorage())
		testEmptyColdRead(t, tr, func() {
			if err := tr.FlushDirty(); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("write-through-lsm", func(t *testing.T) {
		db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), DisableWAL: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tr := newWT(t, NewLSMStorage(db))
		testEmptyColdRead(t, tr, func() {})
	})
}

func testEmptyColdRead(t *testing.T, tr *Tiered, sync func()) {
	t.Helper()
	if err := tr.Set("empty", []byte{}); err != nil {
		t.Fatal(err)
	}
	sync()                 // write-back: reach storage first
	tr.Engine().FlushAll() // go cold: force the storage round trip
	v, err := tr.Get("empty")
	if err != nil {
		t.Fatalf("present-empty degraded to absent: %v", err)
	}
	if v == nil || len(v) != 0 {
		t.Fatalf("want non-nil empty, got %#v", v)
	}
	// Batch path must agree: present-empty is non-nil, absent is nil.
	tr.Engine().FlushAll()
	got, err := tr.BatchGet([]string{"empty", "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if got["empty"] == nil || len(got["empty"]) != 0 {
		t.Fatalf("batch present-empty: %#v", got["empty"])
	}
	if got["absent"] != nil {
		t.Fatalf("batch absent: %#v", got["absent"])
	}
}

// TestBatchDeleteCountsAllTiers: the DEL count must include keys the
// cache no longer holds but storage does, cost one existence round trip,
// and delete everything in one storage round trip.
func TestBatchDeleteCountsAllTiers(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("cold", []byte("storage-only"))
	remote := NewRemote(stor, 0)
	tr := newWT(t, remote)
	if err := tr.Set("warm", []byte("cached")); err != nil {
		t.Fatal(err)
	}
	before := remote.Stats()
	n, err := tr.BatchDelete([]string{"warm", "cold", "nope", "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("deleted count %d, want 2 (warm + cold; nope absent, warm duplicate)", n)
	}
	after := remote.Stats()
	if rpcs := after.BatchDels - before.BatchDels; rpcs != 1 {
		t.Fatalf("%d BatchDelete round trips, want 1", rpcs)
	}
	if after.Deletes != before.Deletes {
		t.Fatalf("batch path issued %d single Deletes", after.Deletes-before.Deletes)
	}
	// Existence for cache-missing keys costs exactly one BatchGet.
	if rpcs := after.BatchGets - before.BatchGets; rpcs != 1 {
		t.Fatalf("%d existence round trips, want 1", rpcs)
	}
	for _, k := range []string{"warm", "cold"} {
		if _, ok, _ := stor.Get(k); ok {
			t.Fatalf("%s still in storage", k)
		}
		if _, err := tr.Get(k); err != ErrNotFound {
			t.Fatalf("%s still readable: %v", k, err)
		}
	}
}

// TestBatchDeleteWriteBack: dirty values count, dirty tombstones don't,
// and the deletes propagate as tombstones on the next flush.
func TestBatchDeleteWriteBack(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("cold", []byte("v"))
	stor.Put("gone", []byte("v"))
	tr := newWB(t, stor, func(o *Options) { o.FlushInterval = time.Hour; o.FlushBatch = 1000 })
	tr.Set("pending", []byte("unflushed"))
	tr.Delete("gone")      // tombstone: user-visibly deleted already
	tr.Engine().FlushAll() // drop cache so dirty state must be consulted
	n, err := tr.BatchDelete([]string{"pending", "cold", "gone", "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("deleted count %d, want 2 (pending dirty value + cold in storage)", n)
	}
	if err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"pending", "cold", "gone"} {
		if _, ok, _ := stor.Get(k); ok {
			t.Fatalf("%s survived flush", k)
		}
	}
}

// TestBatchDeleteCacheOnly counts live engine keys, collections included.
func TestBatchDeleteCacheOnly(t *testing.T) {
	tr := newTiered(t, CacheOnly, nil)
	tr.Set("s", []byte("v"))
	if _, err := tr.Engine().RPush("list", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n, err := tr.BatchDelete([]string{"s", "list", "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count %d, want 2", n)
	}
	if tr.Engine().Len() != 0 {
		t.Fatalf("%d keys left", tr.Engine().Len())
	}
}
