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

// Tests for per-stripe capacity eviction, the (value, ok) storage
// contract (present-empty round trips), and tiered BatchDelete counts.

// TestStripedEvictionConcurrentBatchPut churns capacity across stripes
// from many goroutines (meaningful under -race): eviction is per-stripe,
// so concurrent batches must neither trample each other's clock hands nor
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
	// Quiescent now: every stripe must fit its budget (stripes sum to at
	// most capacity + one ceil-rounding per stripe).
	slack := int64(eng.NumShards())
	if used := eng.MemUsed(); used > tr.opts.CacheCapacityBytes+slack {
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

// TestEvictionFitsBudgetWithMixedSizes feeds a capacity-mode cache four
// times its budget of values from 16 B to 3 KiB, overwrites included. The
// engine keeps records in slab pages and charges a stripe for the slots
// its records occupy, not for the pages behind them, so every eviction
// lowers ShardMemUsed and the eviction loop ends with each stripe inside
// its budget; a charge by the page would leave it spinning on a stripe
// whose pages never empty, or holding nothing at all.
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
	for si := 0; si < eng.NumShards(); si++ {
		if used, budget := eng.ShardMemUsed(si), tr.tier.stripes[si].budget.Load(); used > budget {
			t.Errorf("stripe %d holds %d bytes over a budget of %d", si, used, budget)
		}
	}
	if tr.Stats().Evictions == 0 {
		t.Error("no evictions at 4x the budget")
	}
	if used := eng.MemUsed(); used < capacity/2 {
		t.Errorf("cache holds %d bytes of a %d budget: evictions are freeing more than they need to", used, capacity)
	}
}

// TestStripedEvictionIsPerStripe pins keys to specific stripes and checks
// that filling one stripe past its budget evicts only there, leaving
// other stripes' residents alone.
func TestStripedEvictionIsPerStripe(t *testing.T) {
	stor := NewMapStorage()
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteThrough, Engine: eng, Storage: stor,
		CacheCapacityBytes: 64 << 10, // per-stripe budget: 4 KiB over 16 stripes
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// One resident key per distinct stripe, small enough to stay.
	victims := map[int]string{}
	for i := 0; len(victims) < eng.NumShards() && i < 4096; i++ {
		k := fmt.Sprintf("resident:%04d", i)
		if si := eng.ShardIndex(k); victims[si] == "" {
			victims[si] = k
			tr.Set(k, []byte("small"))
		}
	}
	// Now flood a single stripe far past its budget.
	hot := eng.ShardIndex("resident:0000")
	big := bytes.Repeat([]byte("y"), 512)
	flooded := 0
	for i := 0; flooded < 32 && i < 65536; i++ {
		k := fmt.Sprintf("flood:%06d", i)
		if eng.ShardIndex(k) != hot {
			continue
		}
		flooded++
		tr.Set(k, big)
	}
	if tr.Stats().Evictions == 0 {
		t.Fatal("flooded stripe did not evict")
	}
	// Every resident on a non-flooded stripe must still be cache-resident.
	for si, k := range victims {
		if si == hot {
			continue
		}
		if _, err := eng.Get(k); err != nil {
			t.Fatalf("stripe %d resident %s evicted by stripe %d's pressure", si, k, hot)
		}
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
