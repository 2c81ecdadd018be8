package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"tierbase/internal/engine"
)

func newTiered(t *testing.T, policy Policy, stor Storage) *Tiered {
	t.Helper()
	tr, err := New(Options{Policy: policy, Engine: engine.New(engine.Options{}), Storage: stor})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestBatchGetCacheOnly(t *testing.T) {
	tr := newTiered(t, CacheOnly, nil)
	tr.Set("a", []byte("1"))
	tr.Set("b", []byte("2"))
	got, err := tr.BatchGet([]string{"a", "b", "missing", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["a"]) != "1" || string(got["b"]) != "2" || got["missing"] != nil {
		t.Fatalf("got %q", got)
	}
}

func TestBatchGetFetchesMissesInOneRoundTrip(t *testing.T) {
	stor := NewMapStorage()
	remote := NewRemote(stor, 0)
	tr := newTiered(t, WriteThrough, remote)
	for i := 0; i < 8; i++ {
		stor.Put(fmt.Sprintf("s%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	tr.Set("cached", []byte("warm"))

	keys := []string{"cached"}
	for i := 0; i < 8; i++ {
		keys = append(keys, fmt.Sprintf("s%d", i))
	}
	keys = append(keys, "absent")
	before := remote.Stats()
	got, err := tr.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	after := remote.Stats()
	if string(got["cached"]) != "warm" || string(got["s3"]) != "v3" || got["absent"] != nil {
		t.Fatalf("got %q", got)
	}
	// The 9 misses must cost exactly one storage round trip, no
	// single-key Gets.
	if rpcs := after.BatchGets - before.BatchGets; rpcs != 1 {
		t.Fatalf("%d BatchGet round trips, want 1", rpcs)
	}
	if after.Gets != before.Gets {
		t.Fatalf("batch path issued %d single Gets", after.Gets-before.Gets)
	}
	// Fetched values must now be cache-resident.
	if v, err := tr.Engine().Get("s5"); err != nil || string(v) != "v5" {
		t.Fatalf("s5 not admitted: %q %v", v, err)
	}
}

func TestBatchGetWriteBackDirtyShadowsStorage(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("stale", []byte("old"))
	stor.Put("gone", []byte("zombie"))
	tr := newTiered(t, WriteBack, stor)
	tr.Set("stale", []byte("new"))
	tr.Delete("gone")
	// Drop both from the cache tier so BatchGet must consult dirty state.
	tr.Engine().FlushAll()

	got, err := tr.BatchGet([]string{"stale", "gone"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["stale"]) != "new" {
		t.Fatalf("dirty value lost: %q", got["stale"])
	}
	if got["gone"] != nil {
		t.Fatalf("tombstone ignored: %q", got["gone"])
	}
}

func TestBatchPutWriteThrough(t *testing.T) {
	stor := NewMapStorage()
	remote := NewRemote(stor, 0)
	tr := newTiered(t, WriteThrough, remote)
	tr.Set("del-me", []byte("x"))

	entries := map[string][]byte{
		"a":      []byte("1"),
		"b":      []byte("2"),
		"del-me": nil,
	}
	if err := tr.BatchPut(entries); err != nil {
		t.Fatal(err)
	}
	if remote.Stats().BatchPuts != 1 || remote.Stats().Puts != 1 { // 1 Put from the seed Set
		t.Fatalf("rpc stats %+v", remote.Stats())
	}
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		if v, ok, err := stor.Get(k); err != nil || !ok || string(v) != want {
			t.Fatalf("storage %s: %q %v %v", k, v, ok, err)
		}
		if v, err := tr.Get(k); err != nil || string(v) != want {
			t.Fatalf("cache %s: %q %v", k, v, err)
		}
	}
	if _, ok, _ := stor.Get("del-me"); ok {
		t.Fatal("nil value must delete from storage")
	}
	if _, err := tr.Get("del-me"); err != ErrNotFound {
		t.Fatal("nil value must delete from cache")
	}
}

func TestBatchPutWriteThroughFailureInvalidates(t *testing.T) {
	stor := newFlakyStorage()
	tr := newTiered(t, WriteThrough, stor)
	tr.Set("k", []byte("old"))
	stor.failWrites.Store(true)
	if err := tr.BatchPut(map[string][]byte{"k": []byte("new")}); err == nil {
		t.Fatal("want error")
	}
	stor.failWrites.Store(false)
	// The failed batch must invalidate, not leave the new value cached.
	v, err := tr.Get("k")
	if err != nil || string(v) != "old" {
		t.Fatalf("after failed batch: %q %v", v, err)
	}
}

func TestBatchPutWriteBackFlushes(t *testing.T) {
	stor := NewMapStorage()
	tr := newTiered(t, WriteBack, stor)
	entries := make(map[string][]byte)
	for i := 0; i < 20; i++ {
		entries[fmt.Sprintf("k%d", i)] = []byte(fmt.Sprintf("v%d", i))
	}
	if err := tr.BatchPut(entries); err != nil {
		t.Fatal(err)
	}
	// Acked from cache immediately.
	if v, err := tr.Get("k7"); err != nil || string(v) != "v7" {
		t.Fatalf("cache read: %q %v", v, err)
	}
	if err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if stor.Len() != 20 {
		t.Fatalf("storage has %d keys, want 20", stor.Len())
	}
	if v, _, _ := stor.Get("k7"); string(v) != "v7" {
		t.Fatalf("storage value %q", v)
	}
}

// TestSingleflightCoalescesMisses hammers one cold key from many
// goroutines; the singleflight must collapse them into ~1 storage read.
func TestSingleflightCoalescesMisses(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("cold", []byte("v"))
	remote := NewRemote(stor, time.Millisecond)
	tr := newTiered(t, WriteThrough, remote)

	const readers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := tr.Get("cold")
			if err != nil || !bytes.Equal(v, []byte("v")) {
				t.Errorf("get: %q %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	// Every reader resolves via exactly one of: the leader's storage get,
	// a coalesced flight wait, or a cache hit after admission. Whatever
	// the interleaving, round trips must be strictly fewer than readers.
	gets := remote.Stats().Gets
	shared := tr.Stats().Shared
	hits := tr.Stats().Hits
	if gets >= readers {
		t.Fatalf("no coalescing: %d storage gets for %d readers", gets, readers)
	}
	if gets+shared+hits < readers {
		t.Fatalf("gets=%d shared=%d hits=%d don't cover %d readers", gets, shared, hits, readers)
	}
}

// TestSingleflightNotFound ensures coalesced waiters observe ErrNotFound
// rather than a zero value when the leader's fetch misses storage.
func TestSingleflightNotFound(t *testing.T) {
	stor := NewMapStorage()
	tr := newTiered(t, WriteThrough, stor)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Get("nope"); err != ErrNotFound {
				t.Errorf("want ErrNotFound, got %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestBatchGetConcurrentWithRace exercises BatchGet/BatchPut/Get/Set from
// many goroutines (meaningful under -race).
func TestBatchConcurrentStress(t *testing.T) {
	stor := NewMapStorage()
	tr := newTiered(t, WriteBack, stor)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k1 := fmt.Sprintf("k%d", i%32)
				k2 := fmt.Sprintf("k%d", (i+7)%32)
				switch g % 4 {
				case 0:
					tr.BatchPut(map[string][]byte{k1: []byte("a"), k2: []byte("b")})
				case 1:
					tr.BatchGet([]string{k1, k2})
				case 2:
					tr.Set(k1, []byte("c"))
				case 3:
					tr.Get(k2)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchGetWrongTypeNotClobbered: a wrong-typed cache key must report
// nil (Redis MGET) but must NOT be treated as a miss — a storage fetch
// would overwrite the live collection with stale bytes.
func TestBatchGetWrongTypeNotClobbered(t *testing.T) {
	stor := NewMapStorage()
	stor.Put("k", []byte("stale-string"))
	remote := NewRemote(stor, 0)
	tr := newTiered(t, WriteThrough, remote)
	// The key now holds a list in the engine (server routes collection
	// commands straight to the engine even in tiered mode).
	if _, err := tr.Engine().RPush("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.BatchGet([]string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if got["k"] != nil {
		t.Fatalf("wrong-typed key should report nil, got %q", got["k"])
	}
	if remote.Stats().BatchGets != 0 {
		t.Fatal("wrong-typed key must not trigger a storage fetch")
	}
	if tr.Engine().Type("k") != engine.KindList {
		t.Fatal("BatchGet clobbered the live list with storage data")
	}
	if n, _ := tr.Engine().LLen("k"); n != 1 {
		t.Fatalf("list damaged: len %d", n)
	}
}
