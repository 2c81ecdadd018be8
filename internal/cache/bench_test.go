package cache

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/engine"
)

// Cache-tier benchmarks: the batch fast path in capacity mode
// (CacheCapacityBytes > 0). Run with -cpu to see how hits scale with
// cores; these are the numbers the CI bench job records as the perf
// trajectory baseline.

const benchKeys = 4096

func newBenchTiered(b *testing.B, capacity int64) *Tiered {
	b.Helper()
	stor := NewMapStorage()
	tr, err := New(Options{
		Policy:             WriteThrough,
		Engine:             engine.New(engine.Options{}),
		Storage:            stor,
		CacheCapacityBytes: capacity,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	val := []byte("0123456789abcdef0123456789abcdef")
	for i := 0; i < benchKeys; i++ {
		if err := tr.Set(fmt.Sprintf("bench:%04d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

// BenchmarkTieredBatchGet measures parallel 16-key batch reads served
// entirely from the cache tier in capacity mode.
func BenchmarkTieredBatchGet(b *testing.B) {
	tr := newBenchTiered(b, 1<<30) // bounded, never reached: no eviction
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		keys := make([]string, 16)
		for pb.Next() {
			base := int(seq.Add(1)) * 17
			for j := range keys {
				keys[j] = fmt.Sprintf("bench:%04d", (base+j*13)%benchKeys)
			}
			if _, err := tr.BatchGet(keys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTieredGetHit measures parallel single-key cache hits in
// capacity mode.
func BenchmarkTieredGetHit(b *testing.B) {
	tr := newBenchTiered(b, 1<<30)
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := fmt.Sprintf("bench:%04d", int(seq.Add(1))*31%benchKeys)
			if _, err := tr.Get(k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTieredGetMiss measures parallel single-key reads with a 16 KiB
// cache tier in front of the 4096 keys, so nearly every read misses: the
// storage fetch, the admission and the eviction it forces.
func BenchmarkTieredGetMiss(b *testing.B) {
	tr := newBenchTiered(b, 16<<10)
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := fmt.Sprintf("bench:%04d", int(seq.Add(1))*31%benchKeys)
			if _, err := tr.Get(k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTieredSetDirtyEvictionScan measures parallel writes while the
// cache sits over budget with a large unflushable dirty set: every write
// triggers an eviction attempt that must pass over dirty entries: one lap
// of one stripe's clock hand (O(resident/shards)), under that stripe's
// engine write lock.
func BenchmarkTieredSetDirtyEvictionScan(b *testing.B) {
	stor := NewMapStorage()
	tr, err := New(Options{
		Policy:             WriteBack,
		Engine:             engine.New(engine.Options{}),
		Storage:            stor,
		CacheCapacityBytes: 64 << 10,
		FlushBatch:         1 << 20, // never reached: dirty set stays put
		FlushInterval:      time.Hour,
		MaxDirty:           1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		tr.FlushDirty() // unblock Close's final flush
		tr.Close()
	})
	val := []byte("0123456789abcdef0123456789abcdef0123456789abcdef")
	for i := 0; i < benchKeys; i++ {
		if err := tr.Set(fmt.Sprintf("dirty:%04d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := fmt.Sprintf("dirty:%04d", int(seq.Add(1))*31%benchKeys)
			if err := tr.Set(k, val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- write-path benchmarks (the CI bench job's write coverage) ---

// BenchmarkWTSetSameKey measures write-through writes from all goroutines
// converging on ONE hot key: its RMW stripe lock, held across the storage
// write, is the whole benchmark.
func BenchmarkWTSetSameKey(b *testing.B) {
	tr := newBenchTiered(b, 1<<30)
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := tr.Set("bench:0000", val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWTSetSpreadKeys measures write-through writes spread across
// the keyspace: writers should scale with stripes, not fight over one
// lock.
func BenchmarkWTSetSpreadKeys(b *testing.B) {
	tr := newBenchTiered(b, 1<<30)
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := fmt.Sprintf("bench:%04d", int(seq.Add(1))*31%benchKeys)
			if err := tr.Set(k, val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWTSetHotSpreadMix interleaves hot-key writes with spread-key
// writes: the contended single-key path sharing the store with unrelated
// write traffic. The hot key serializes on its own stripe lock only; the
// spread writes on other stripes pass it.
func BenchmarkWTSetHotSpreadMix(b *testing.B) {
	tr := newBenchTiered(b, 1<<30)
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := int(seq.Add(1))
			if n%4 == 0 {
				if err := tr.Set("bench:0000", val); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if err := tr.Set(fmt.Sprintf("bench:%04d", n*31%benchKeys), val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWBSetFlushThroughput measures sustained write-back writes with
// the background flusher draining: admission to the dirty set (one lock,
// one budget) plus flush rounds, the full async write pipeline.
func BenchmarkWBSetFlushThroughput(b *testing.B) {
	stor := NewMapStorage()
	tr, err := New(Options{
		Policy:     WriteBack,
		Engine:     engine.New(engine.Options{}),
		Storage:    stor,
		FlushBatch: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := fmt.Sprintf("bench:%04d", int(seq.Add(1))*31%benchKeys)
			if err := tr.Set(k, val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWBBackpressureSaturated measures write-back writes with the
// dirty set pinned at its budget: every write waits for a flush to free
// its slot. A flush round wakes every blocked writer, and those who find
// the set full again wait on; the writers are the benchmark's goroutines
// (in a server, a shard's workers).
func BenchmarkWBBackpressureSaturated(b *testing.B) {
	stor := NewMapStorage()
	tr, err := New(Options{
		Policy:        WriteBack,
		Engine:        engine.New(engine.Options{}),
		Storage:       stor,
		MaxDirty:      64, // two flush batches: writers block routinely
		FlushBatch:    32,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := fmt.Sprintf("bench:%04d", int(seq.Add(1))*31%benchKeys)
			if err := tr.Set(k, val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWTBatchVsSingle compares one 16-key BatchPut against 16
// single-key Sets — the ordering-unification cost: the batch pays queue
// admission per key but still commits all led keys in one storage round
// trip.
func BenchmarkWTBatchVsSingle(b *testing.B) {
	val := []byte("0123456789abcdef0123456789abcdef")
	keysOf := func(base int) []string {
		keys := make([]string, 16)
		for j := range keys {
			keys[j] = fmt.Sprintf("bench:%04d", (base+j*13)%benchKeys)
		}
		return keys
	}
	b.Run("batch16", func(b *testing.B) {
		tr := newBenchTiered(b, 1<<30)
		b.ReportAllocs()
		b.ResetTimer()
		var seq atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				entries := make(map[string][]byte, 16)
				for _, k := range keysOf(int(seq.Add(1)) * 17) {
					entries[k] = val
				}
				if err := tr.BatchPut(entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("single16", func(b *testing.B) {
		tr := newBenchTiered(b, 1<<30)
		b.ReportAllocs()
		b.ResetTimer()
		var seq atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				for _, k := range keysOf(int(seq.Add(1)) * 17) {
					if err := tr.Set(k, val); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	})
}

// BenchmarkWTBatchPutRemote measures 16-key write-through batches against
// a storage tier with a real round-trip latency — the deployment the
// batch fast path exists for. The whole batch must cost ~one RTT
// (uncontended keys share one grouped BatchPut); this is the number that
// must not regress as batches route through the ordering queues.
func BenchmarkWTBatchPutRemote(b *testing.B) {
	stor := NewMapStorage()
	remote := NewRemote(stor, 100*time.Microsecond)
	tr, err := New(Options{
		Policy:  WriteThrough,
		Engine:  engine.New(engine.Options{}),
		Storage: remote,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			entries := make(map[string][]byte, 16)
			base := int(seq.Add(1)) * 17
			for j := 0; j < 16; j++ {
				entries[fmt.Sprintf("bench:%04d", (base+j*13)%benchKeys)] = val
			}
			if err := tr.BatchPut(entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTieredBatchPut measures parallel 16-key batch writes under
// capacity pressure (eviction churn across stripes).
func BenchmarkTieredBatchPut(b *testing.B) {
	tr := newBenchTiered(b, 256<<10) // tight budget: eviction runs steadily
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// Fresh map per iteration: reusing one map accumulated keys
			// across iterations, silently growing the "16-key" batch to
			// the whole keyspace.
			entries := make(map[string][]byte, 16)
			base := int(seq.Add(1)) * 17
			for j := 0; j < 16; j++ {
				entries[fmt.Sprintf("bench:%04d", (base+j*13)%benchKeys)] = val
			}
			if err := tr.BatchPut(entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}
