package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tierbase/internal/core"
	"tierbase/internal/engine"
	"tierbase/internal/workload"
)

// Tests for capacity eviction as the engine's clock does it: what it costs
// in memory (nothing the engine does not account), what it gives up in hit
// ratio against exact LRU (within two points), and where one budget with
// one hand across the stripes lets residency go (to the stripes that miss).

// heapAfterGC returns the live heap once garbage is gone.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCapacityModeMemUsedTracksHeap is engine.TestMemUsedTracksHeap one
// layer up: with CacheCapacityBytes set, the heap a resident key costs is
// what the engine says it costs. The list, map and second key copy the
// cache tier used to keep per resident key (~115 B, charged to nothing)
// would fail it by 40%. Twice: with the capacity never reached, and with
// the capacity at half the fill, so that half of the keys were evicted on
// the way in and every slot was freed and taken again.
func TestCapacityModeMemUsedTracksHeap(t *testing.T) {
	const keys = 200_000
	val := make([]byte, 256)
	fill := func(name string, capacity int64) (used int64) {
		before := heapAfterGC()
		eng := engine.New(engine.Options{})
		tr, err := New(Options{Policy: CacheOnly, Engine: eng, CacheCapacityBytes: capacity})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for i := 0; i < keys; i++ {
			if err := tr.Set(fmt.Sprintf("user:%011d", i), val); err != nil {
				t.Fatal(err)
			}
		}
		heap, resident := heapAfterGC()-before, int64(eng.Len())
		used = eng.MemUsed()
		t.Logf("%s: %d resident, heap %.1f B/key, mem_bytes %.1f B/key, %d evictions", name, resident,
			float64(heap)/float64(resident), float64(used)/float64(resident), tr.Stats().Evictions)
		if ratio := float64(heap) / float64(used); ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%s: heap grew %d bytes for %d the engine accounts: ratio %.3f outside [0.97, 1.03]", name, heap, used, ratio)
		}
		if used > capacity {
			t.Errorf("%s: %d bytes resident over a capacity of %d", name, used, capacity)
		}
		runtime.KeepAlive(tr)
		return used
	}
	whole := fill("capacity unreached", 1<<30)
	if half := fill("capacity at half the fill", whole/2); half < whole/2*9/10 {
		t.Errorf("a capacity of %d holds only %d bytes", whole/2, half)
	}
}

// clockVsLRU replays trace (key indexes) as Gets against a write-through
// Tiered over an engine of so many stripes whose capacity holds about
// residentKeys of the keys storage has, and returns its hit ratio next to
// exact LRU's at the resident-key count the run ended with.
func clockVsLRU(t *testing.T, trace []int64, stripes, keyspace, residentKeys int) (clock, lru float64) {
	t.Helper()
	key := func(i int64) string { return fmt.Sprintf("skew:%05d", i) }
	val := make([]byte, 128)
	stor := NewMapStorage()
	scratch := engine.New(engine.Options{Shards: stripes})
	for i := 0; i < keyspace; i++ {
		stor.Put(key(int64(i)), val)
		if i < residentKeys {
			scratch.Set(key(int64(i)), val)
		}
	}
	eng := engine.New(engine.Options{Shards: stripes})
	tr, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: stor, CacheCapacityBytes: scratch.MemUsed()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	names := make([]string, len(trace))
	for i, ki := range trace {
		names[i] = key(ki)
		if _, err := tr.Get(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if st.Evictions == 0 {
		t.Fatal("the trace never filled the cache")
	}
	clock = float64(st.Hits) / float64(len(trace))
	lru = 1 - core.BuildMRC(names).MissRatioAtKeys(eng.Len())
	t.Logf("%d resident keys: clock %.4f, exact LRU %.4f", eng.Len(), clock, lru)
	return clock, lru
}

// TestClockHitRatioWithinTwoPointsOfLRU is the quality bar for replacing
// the recency list with one bit per key: on a zipf-0.99 trace and on a hot
// set that jumps every 50k reads, a cache of an eighth of the keys hits no
// more than two points less often than exact LRU holding as many keys. In
// one stripe that is the engine's clock alone; in the default sixteen it is
// sixteen clocks and the cache tier's hand across them, against one LRU
// list over all the keys.
func TestClockHitRatioWithinTwoPointsOfLRU(t *testing.T) {
	const keyspace, reads = 16384, 400_000
	for _, c := range []struct {
		name    string
		stripes int
		chooser workload.KeyChooser
	}{
		{"zipf-0.99", 1, workload.NewScrambledZipfian(keyspace, workload.ZipfianTheta)},
		{"hotspot-shift", 1, workload.NewShiftingHotspot(keyspace, 0.1, 0.9, 50000)},
		{"zipf-0.99/16-stripes", engine.DefaultShards, workload.NewScrambledZipfian(keyspace, workload.ZipfianTheta)},
		{"hotspot-shift/16-stripes", engine.DefaultShards, workload.NewShiftingHotspot(keyspace, 0.1, 0.9, 50000)},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			trace := make([]int64, reads)
			for i := range trace {
				trace[i] = c.chooser.Next(rng)
			}
			if clock, lru := clockVsLRU(t, trace, c.stripes, keyspace, keyspace/8); clock < lru-0.02 {
				t.Errorf("clock hit ratio %.4f is more than two points under exact LRU's %.4f", clock, lru)
			}
		})
	}
}

// TestReadCollectionOutlivesIdleStrings: the server reads a collection with
// Warm and then an engine call, which the cache tier never sees. Recency
// used to live in the cache tier, so a list read on every request aged
// like one never read and was evicted (and fetched again) once per
// cache-full of admissions. It is the engine that marks a key now.
func TestReadCollectionOutlivesIdleStrings(t *testing.T) {
	stor := NewMapStorage()
	scratch := engine.New(engine.Options{Shards: 1})
	scratch.RPush("list", []byte("a"), []byte("b"))
	blob, _, _ := scratch.Encode("list")
	stor.Put("list", blob)
	val := make([]byte, 128)
	const idle = 4000
	for i := 0; i < idle; i++ {
		stor.Put(fmt.Sprintf("idle:%04d", i), val)
	}
	eng := engine.New(engine.Options{Shards: 1})
	tr, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: stor, CacheCapacityBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < idle; i++ {
		tr.Warm("list")
		if got, err := eng.LRange("list", 0, -1); err != nil || len(got) != 2 {
			t.Fatalf("LRange after %d admissions: %d elements, %v", i, len(got), err)
		}
		if _, err := tr.Get(fmt.Sprintf("idle:%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if misses := tr.Stats().Misses; misses != idle+1 {
		t.Errorf("%d misses for %d idle keys and one list: the list was evicted and fetched again", misses, idle)
	}
	if st := tr.Stats(); st.Evictions < idle/2 {
		t.Errorf("only %d evictions: the cache was never under pressure", st.Evictions)
	}
}

// --- one budget, one hand: residency follows the misses ---

func hotKey(i int64) string { return fmt.Sprintf("ad:%05d", i) }

// aloneBytes is what one 128 B key measures alone in an engine of so many
// stripes: its record and the smallest index table.
func aloneBytes(stripes int, key func(int64) string) int64 {
	scratch := engine.New(engine.Options{Shards: stripes})
	scratch.Set(key(0), make([]byte, 128))
	return scratch.MemUsed()
}

// newReadStore is a write-through store over map storage holding nKeys keys
// of 128 B, with a cache of capBytes engine-resident bytes on an engine of
// so many stripes.
func newReadStore(tb testing.TB, stripes, nKeys int, capBytes int64, key func(int64) string) *Tiered {
	tb.Helper()
	val := make([]byte, 128)
	tr, err := New(Options{
		Policy:             WriteThrough,
		Engine:             engine.New(engine.Options{Shards: stripes}),
		Storage:            NewMapStorage(),
		CacheCapacityBytes: capBytes,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	for i := 0; i < nKeys; i++ {
		if err := tr.Set(key(int64(i)), val); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// readHitRate reads n keys and returns the share that hit.
func readHitRate(tb testing.TB, tr *Tiered, n int, next func() string) float64 {
	before := tr.Stats()
	for i := 0; i < n; i++ {
		if _, err := tr.Get(next()); err != nil && err != ErrNotFound {
			tb.Fatal(err)
		}
	}
	return float64(tr.Stats().Hits-before.Hits) / float64(n)
}

// The hotspot scenarios: 4096 keys over eight stripes, room for 64 times
// what one measures alone.
const hotspotKeys = 4096

func newHotspotStore(t *testing.T) *Tiered {
	return newReadStore(t, 8, hotspotKeys, 64*aloneBytes(8, hotKey), hotKey)
}

// hotspotReader returns a key picker: 95% of reads go to 40 hot keys that
// all hash to engine stripes lo..hi, the rest anywhere.
func hotspotReader(tr *Tiered, rng *rand.Rand, lo, hi int) func() string {
	var hot []string
	for i := int64(0); len(hot) < 40; i++ {
		if si := tr.eng.ShardIndex(hotKey(i)); si >= lo && si <= hi {
			hot = append(hot, hotKey(i))
		}
	}
	return func() string {
		if rng.Float64() < 0.95 {
			return hot[rng.Intn(len(hot))]
		}
		return hotKey(rng.Int63n(hotspotKeys))
	}
}

// TestConcentratedHotspotKeepsItsHotSet: 40 hot keys collide onto two of
// eight stripes and the cache holds 64 keys. An even split of the budget
// gives those two stripes 16 keys of room and the hot set thrashes (hit
// rate 0.376 when the budget was per stripe); one budget lets the two
// stripes grow until the hot set fits.
func TestConcentratedHotspotKeepsItsHotSet(t *testing.T) {
	tr := newHotspotStore(t)
	next := hotspotReader(tr, rand.New(rand.NewSource(7)), 0, 1)
	readHitRate(t, tr, 20*2048, next) // warm up
	if hr := readHitRate(t, tr, 20*2048, next); hr < 0.90 {
		t.Errorf("hit rate %.4f with the hot set on two stripes of eight, want >= 0.90", hr)
	} else {
		t.Logf("hit rate %.4f", hr)
	}
}

// TestHotspotShiftRecovers: the hot set sits on stripes 0-1 until they hold
// most of the cache, then jumps to other keys on stripes 6-7. The old hot
// keys stop being read, the hand takes them as it comes round, and the hit
// rate is back within 0.05 of what it was inside 8 rounds of 2048 reads.
func TestHotspotShiftRecovers(t *testing.T) {
	tr := newHotspotStore(t)
	rng := rand.New(rand.NewSource(9))
	next := hotspotReader(tr, rng, 0, 1)
	readHitRate(t, tr, 20*2048, next)
	before := readHitRate(t, tr, 20*2048, next)
	if before < 0.80 {
		t.Fatalf("hit rate %.4f before the shift: the hot set never settled", before)
	}
	next = hotspotReader(tr, rng, 6, 7)
	for round := 1; round <= 8; round++ {
		if hr := readHitRate(t, tr, 2048, next); hr >= before-0.05 {
			t.Logf("hit rate %.4f in round %d after the shift (%.4f before it)", hr, round, before)
			return
		}
	}
	t.Errorf("hit rate not within 0.05 of %.4f inside 8 rounds after the shift", before)
}

// TestSmallBudgetHoldsWhatItHeld: MemUsed charges each stripe's index table,
// so what the smallest table costs decides how many keys a small cache keeps.
// A 2 KiB budget over 16 stripes held 12, 44 and 66 keys of these value
// sizes when a table was 8-byte slots, 8 at least; six-byte entries in tables
// of any length must not hold fewer.
func TestSmallBudgetHoldsWhatItHeld(t *testing.T) {
	for vlen, held := range map[int]int{100: 12, 18: 44, 1: 66} {
		eng := engine.New(engine.Options{})
		tr, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: NewMapStorage(), CacheCapacityBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte("x"), vlen)
		for i := 0; i < 500; i++ {
			tr.Set(fmt.Sprintf("k%03d", i), val)
		}
		if got := eng.Len(); got < held || eng.MemUsed() > 2048 {
			t.Errorf("%d-byte values: %d keys resident in %d bytes, want at least %d in at most 2048", vlen, got, eng.MemUsed(), held)
		}
		tr.Close()
	}
}
