package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/wal"
)

func newWT(t *testing.T, stor Storage) *Tiered {
	t.Helper()
	tr, err := New(Options{Policy: WriteThrough, Engine: engine.New(engine.Options{}), Storage: stor})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func newWB(t *testing.T, stor Storage, opts ...func(*Options)) *Tiered {
	t.Helper()
	o := Options{
		Policy:        WriteBack,
		Engine:        engine.New(engine.Options{}),
		Storage:       stor,
		FlushBatch:    8,
		FlushInterval: 10 * time.Millisecond,
	}
	for _, f := range opts {
		f(&o)
	}
	tr, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Policy: WriteThrough}); err == nil {
		t.Fatal("missing engine accepted")
	}
	if _, err := New(Options{Policy: WriteThrough, Engine: engine.New(engine.Options{})}); err == nil {
		t.Fatal("missing storage accepted")
	}
	if _, err := New(Options{Policy: CacheOnly, Engine: engine.New(engine.Options{})}); err != nil {
		t.Fatalf("cache-only should not need storage: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if CacheOnly.String() != "cache-only" || WriteThrough.String() != "write-through" || WriteBack.String() != "write-back" {
		t.Fatal("policy names")
	}
}

// --- write-through ---

func TestWTSetReachesStorageSynchronously(t *testing.T) {
	stor := NewMapStorage()
	tr := newWT(t, stor)
	if err := tr.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Synchronous: value must already be durable.
	v, ok, err := stor.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("storage: %q %v %v", v, ok, err)
	}
	// And cached.
	v, err = tr.Engine().Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("cache: %q %v", v, err)
	}
}

func TestWTStorageFailureInvalidatesCache(t *testing.T) {
	stor := NewMapStorage()
	tr := newWT(t, stor)
	tr.Set("k", []byte("v1"))
	stor.FailPuts.Store(true)
	if err := tr.Set("k", []byte("v2")); err == nil {
		t.Fatal("failed storage write must surface")
	}
	// Cache entry must be invalidated so readers refetch from storage.
	if _, err := tr.Engine().Get("k"); err != engine.ErrNotFound {
		t.Fatalf("cache should be invalidated: %v", err)
	}
	stor.FailPuts.Store(false)
	v, err := tr.Get("k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("refetch: %q %v", v, err)
	}
}

func TestWTDelete(t *testing.T) {
	stor := NewMapStorage()
	tr := newWT(t, stor)
	tr.Set("k", []byte("v"))
	if err := tr.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := stor.Get("k"); ok {
		t.Fatal("storage still has key")
	}
	if _, err := tr.Get("k"); err != ErrNotFound {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestWTPerKeyOrdering(t *testing.T) {
	stor := NewMapStorage()
	remote := NewRemote(stor, 0)
	tr := newWT(t, remote)
	// Sequential writes from one goroutine must land in order, one
	// storage round trip each.
	for i := 0; i < 100; i++ {
		if err := tr.Set("seq", []byte(fmt.Sprintf("%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, _, _ := stor.Get("seq")
	if string(v) != "099" {
		t.Fatalf("final storage value %q", v)
	}
	if n := remote.TotalRPCs(); n != 100 {
		t.Fatalf("100 Sets cost %d storage round trips", n)
	}
}

func TestWTUpdateRMW(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("ctr", []byte("10"))
	tr := newWT(t, stor)
	err := tr.Update("ctr", func(old []byte, exists bool) []byte {
		if !exists {
			t.Fatal("existing key reported absent")
		}
		return append(old, '!')
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ := stor.Get("ctr")
	if string(v) != "10!" {
		t.Fatalf("rmw result %q", v)
	}
}

// --- write-back ---

func TestWBAcksBeforeStorage(t *testing.T) {
	stor := NewMapStorage()
	slow := NewRemote(stor, 5*time.Millisecond)
	tr := newWB(t, slow, func(o *Options) { o.FlushInterval = time.Hour; o.FlushBatch = 1000 })
	start := time.Now()
	for i := 0; i < 50; i++ {
		if err := tr.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("write-back writes should not wait on storage: %v", el)
	}
	if tr.Stats().Dirty != 50 {
		t.Fatalf("dirty count %d", tr.Stats().Dirty)
	}
	// Data visible in cache immediately.
	if v, err := tr.Get("k0"); err != nil || string(v) != "v" {
		t.Fatalf("cache read: %q %v", v, err)
	}
}

func TestWBFlushesInBatches(t *testing.T) {
	stor := NewMapStorage()
	remote := NewRemote(stor, 0)
	tr := newWB(t, remote, func(o *Options) { o.FlushBatch = 10; o.FlushInterval = 5 * time.Millisecond })
	for i := 0; i < 100; i++ {
		tr.Set(fmt.Sprintf("k%02d", i), []byte("v"))
	}
	if err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if stor.Len() != 100 {
		t.Fatalf("storage has %d keys", stor.Len())
	}
	st := remote.Stats()
	if st.BatchPuts == 0 || st.Puts > 0 {
		t.Fatalf("writes should go through batches: %+v", st)
	}
	// Batch efficiency: far fewer round trips than keys.
	if st.BatchPuts > 30 {
		t.Fatalf("too many batch round trips: %d", st.BatchPuts)
	}
}

func TestWBMergesUpdatesToSameKey(t *testing.T) {
	stor := NewMapStorage()
	remote := NewRemote(stor, 0)
	tr := newWB(t, remote, func(o *Options) { o.FlushInterval = time.Hour; o.FlushBatch = 1000 })
	for i := 0; i < 50; i++ {
		tr.Set("hot", []byte(fmt.Sprintf("v%02d", i)))
	}
	tr.FlushDirty()
	if moved := remote.Stats().KeysMoved; moved != 1 {
		t.Fatalf("same-key updates not merged: %d keys moved", moved)
	}
	v, _, _ := stor.Get("hot")
	if string(v) != "v49" {
		t.Fatalf("final value %q", v)
	}
}

func TestWBDeleteTombstoneShadowsStorage(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("k", []byte("stale"))
	tr := newWB(t, stor, func(o *Options) { o.FlushInterval = time.Hour; o.FlushBatch = 1000 })
	// Key in storage, absent in cache. Delete writes a dirty tombstone.
	if err := tr.Delete("k"); err != nil {
		t.Fatal(err)
	}
	// A read must NOT resurrect the stale storage value.
	if _, err := tr.Get("k"); err != ErrNotFound {
		t.Fatalf("stale resurrection: %v", err)
	}
	tr.FlushDirty()
	if _, ok, _ := stor.Get("k"); ok {
		t.Fatal("tombstone not propagated")
	}
}

func TestWBBackpressure(t *testing.T) {
	stor := NewMapStorage()
	slow := NewRemote(stor, time.Millisecond)
	tr := newWB(t, slow, func(o *Options) {
		o.FlushBatch = 1 // a dirty budget of 8
		o.FlushInterval = time.Millisecond
	})
	// Writing far beyond the budget must not grow dirty unboundedly.
	for i := 0; i < 200; i++ {
		if err := tr.Set(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if d := tr.Stats().Dirty; d > 16 {
		t.Fatalf("backpressure ineffective: %d dirty", d)
	}
}

func TestWBUpdateFetchesFromStorage(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("k", []byte("base"))
	tr := newWB(t, stor)
	err := tr.Update("k", func(old []byte, exists bool) []byte {
		if !exists || string(old) != "base" {
			t.Fatalf("update miss did not read storage: %q %v", old, exists)
		}
		return append(old, '+')
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.FlushDirty()
	v, _, _ := stor.Get("k")
	if string(v) != "base+" {
		t.Fatalf("value %q", v)
	}
}

// TestWBConcurrentUpdateMisses runs one Update per cold key from as many
// goroutines against a store with a round-trip time: each must see its
// key's stored value and leave its own result in the cache tier and, after
// a flush, in storage.
func TestWBConcurrentUpdateMisses(t *testing.T) {
	stor := NewMapStorage()
	for i := 0; i < 32; i++ {
		stor.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i)))
	}
	tr := newWB(t, NewRemote(stor, 2*time.Millisecond))
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := tr.Update(fmt.Sprintf("k%02d", i), func(old []byte, exists bool) []byte {
				if want := fmt.Sprintf("v%02d", i); !exists || string(old) != want {
					t.Errorf("update %d saw %q %v, want %q", i, old, exists, want)
				}
				return append(old, '!')
			})
			if err != nil {
				t.Errorf("update %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		k, want := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d!", i)
		if v, err := tr.Get(k); err != nil || string(v) != want {
			t.Errorf("cache tier %s = %q %v, want %q", k, v, err, want)
		}
		if v, _, _ := stor.Get(k); string(v) != want {
			t.Errorf("storage %s = %q, want %q", k, v, want)
		}
	}
}

func TestWBUpdateMissingKey(t *testing.T) {
	stor := NewMapStorage()
	tr := newWB(t, stor)
	err := tr.Update("new", func(old []byte, exists bool) []byte {
		if exists {
			t.Fatal("missing key reported present")
		}
		return []byte("created")
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get("new")
	if err != nil || string(v) != "created" {
		t.Fatalf("%q %v", v, err)
	}
}

func TestWBCloseFlushesEverything(t *testing.T) {
	stor := NewMapStorage()
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteBack, Engine: eng, Storage: stor,
		FlushInterval: time.Hour, FlushBatch: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tr.Set(fmt.Sprintf("k%03d", i), []byte("v"))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if stor.Len() != 500 {
		t.Fatalf("close lost dirty data: %d/500 in storage", stor.Len())
	}
	if err := tr.Set("late", []byte("v")); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// --- miss path, eviction, replication ---

func TestMissPathPopulatesCache(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("cold", []byte("from-storage"))
	tr := newWT(t, stor)
	v, err := tr.Get("cold")
	if err != nil || string(v) != "from-storage" {
		t.Fatalf("%q %v", v, err)
	}
	if tr.Stats().Misses != 1 {
		t.Fatalf("misses %d", tr.Stats().Misses)
	}
	// Second read is a hit served from cache.
	tr.Get("cold")
	if tr.Stats().Hits != 1 {
		t.Fatalf("hits %d", tr.Stats().Hits)
	}
	if tr.MissRatio() != 0.5 {
		t.Fatalf("MR %.2f", tr.MissRatio())
	}
}

// TestMissRatioCountsLookups: the MR is misses over lookups. Writes are
// requests too, but they must not dilute it.
func TestMissRatioCountsLookups(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("cold", []byte("v"))
	tr := newWT(t, stor)
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := tr.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tr.Get("a")    // hit
	tr.Get("cold") // miss
	if st := tr.Stats(); st.Requests != 6 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("requests %d hits %d misses %d, want 6 1 1", st.Requests, st.Hits, st.Misses)
	}
	if mr := tr.MissRatio(); mr != 0.5 {
		t.Fatalf("MR %v, want 0.5: 1 miss in 2 lookups", mr)
	}
}

func TestCapacityEviction(t *testing.T) {
	stor := NewMapStorage()
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteThrough, Engine: eng, Storage: stor,
		CacheCapacityBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 50; i++ {
		tr.Set(fmt.Sprintf("k%02d", i), val)
	}
	if eng.MemUsed() > 2048+512 {
		t.Fatalf("cache over capacity: %d", eng.MemUsed())
	}
	if tr.Stats().Evictions == 0 {
		t.Fatal("no evictions")
	}
	// Evicted keys are still readable through storage.
	v, err := tr.Get("k00")
	if err != nil || !bytes.Equal(v, val) {
		t.Fatalf("evicted key lost: %v", err)
	}
}

func TestEvictionSkipsDirty(t *testing.T) {
	stor := NewMapStorage()
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteBack, Engine: eng, Storage: stor,
		CacheCapacityBytes: 1024,
		FlushInterval:      time.Hour, FlushBatch: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	val := bytes.Repeat([]byte("d"), 100)
	for i := 0; i < 20; i++ {
		tr.Set(fmt.Sprintf("k%02d", i), val)
	}
	// All dirty, nothing flushed: dirty keys must survive in cache even
	// though capacity is exceeded.
	for i := 0; i < 20; i++ {
		if _, err := eng.Get(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("dirty key %d evicted before flush", i)
		}
	}
	// After flushing, eviction can proceed: a write to k00's stripe, whose
	// share of the capacity holds less than one key, pushes k00 out.
	tr.FlushDirty()
	trigger := "trigger0"
	for i := 1; eng.ShardIndex(trigger) != eng.ShardIndex("k00"); i++ {
		trigger = fmt.Sprintf("trigger%d", i)
	}
	tr.Set(trigger, val)
	if eng.Exists("k00") {
		t.Fatalf("eviction still blocked after flush: k00 resident, stripe holds %d bytes",
			eng.ShardMemUsed(eng.ShardIndex("k00")))
	}
}

// TestPendingDeletesDoNotBlockEviction: the all-dirty early-out in
// maybeEvict compares the keys the cache holds with the dirty keys it can
// hold. A tombstone is a dirty key the cache does not hold, so a shard with
// as many deletes pending as it has clean residents still evicts one of
// those when a write takes it over budget.
func TestPendingDeletesDoNotBlockEviction(t *testing.T) {
	const n = 20
	val := bytes.Repeat([]byte("c"), 100)
	scratch := engine.New(engine.Options{Shards: 1})
	for i := 0; i < n; i++ {
		scratch.Set(fmt.Sprintf("clean%02d", i), val)
	}
	capacity := scratch.MemUsed()
	eng := engine.New(engine.Options{Shards: 1})
	tr, err := New(Options{
		Policy: WriteBack, Engine: eng, Storage: NewMapStorage(),
		CacheCapacityBytes: capacity,
		FlushInterval:      time.Hour, FlushBatch: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("clean%02d", i), val)
	}
	tr.FlushDirty()
	for i := 0; i < n; i++ {
		tr.Delete(fmt.Sprintf("ghost%02d", i))
	}
	if st := tr.Stats(); st.Dirty != n || st.Evictions != 0 || eng.Len() != n {
		t.Fatalf("before the write: %d dirty, %d evictions, %d resident; want %d, 0, %d", st.Dirty, st.Evictions, eng.Len(), n, n)
	}
	tr.Set("one-more", val)
	if st := tr.Stats(); st.Evictions == 0 || eng.MemUsed() > capacity {
		t.Fatalf("%d clean keys, %d deletes pending, one dirty key over budget: %d evictions, %d bytes of %d",
			n, n, st.Evictions, eng.MemUsed(), capacity)
	}
	if !eng.Exists("one-more") {
		t.Fatal("the dirty key went")
	}
}

func TestCacheOnlyMode(t *testing.T) {
	tr, err := New(Options{Policy: CacheOnly, Engine: engine.New(engine.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Set("k", []byte("v"))
	v, err := tr.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("%q %v", v, err)
	}
	if _, err := tr.Get("missing"); err != ErrNotFound {
		t.Fatalf("miss: %v", err)
	}
	tr.Delete("k")
	if _, err := tr.Get("k"); err != ErrNotFound {
		t.Fatal("delete failed")
	}
}

func TestTieredOverLSM(t *testing.T) {
	db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tr := newWT(t, NewLSMStorage(db))
	for i := 0; i < 200; i++ {
		if err := tr.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tr.Engine().FlushAll() // force all reads through the storage tier
	for i := 0; i < 200; i++ {
		v, err := tr.Get(fmt.Sprintf("k%03d", i))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("lsm roundtrip %d: %q %v", i, v, err)
		}
	}
	tr.Delete("k000")
	if _, err := tr.Get("k000"); err != ErrNotFound {
		t.Fatalf("lsm delete: %v", err)
	}
}

func TestConcurrentMixedTiered(t *testing.T) {
	stor := NewMapStorage()
	tr := newWB(t, stor, func(o *Options) { o.FlushBatch = 8 })
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%02d", (g*300+i)%40)
				switch g % 3 {
				case 0:
					tr.Set(k, []byte("v"))
				case 1:
					tr.Get(k)
				case 2:
					tr.Update(k, func(old []byte, _ bool) []byte { return append(old[:0:0], 'u') })
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictingSetDoesNotAllocateInEvict: the prefill of a store eight times
// its cache evicts one key for every key it admits, so what an eviction
// costs is paid per write. engine.Evict, driven as maybeEvict drives it
// (the store's own pinned closure, stripe after stripe), names its victim
// to no one and allocates nothing.
func TestEvictingSetDoesNotAllocateInEvict(t *testing.T) {
	eng := engine.New(engine.Options{})
	tr, err := New(Options{
		Policy: WriteThrough, Engine: eng, Storage: NewMapStorage(),
		CacheCapacityBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	val := bytes.Repeat([]byte("e"), 100)
	for i := 0; i < 2000; i++ { // four times the budget: every late Set evicts
		if err := tr.Set(fmt.Sprintf("evict:%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().Evictions == 0 {
		t.Fatal("a full write-through store evicted nothing")
	}
	resident := eng.Len()
	if resident < 200 {
		t.Fatalf("only %d keys resident: too few to evict 100", resident)
	}
	si := 0
	allocs := testing.AllocsPerRun(100, func() {
		for !eng.Evict(si%eng.NumShards(), tr.pinned[si%eng.NumShards()]) {
			si++ // an empty stripe
		}
		si++
	})
	if allocs != 0 {
		t.Fatalf("an eviction allocates %.1f times", allocs)
	}
	if eng.Len() >= resident {
		t.Fatal("the measured evictions removed nothing")
	}
}
