package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// Storage-tier benchmarks (CI tracks these in BENCH_<sha>.json).
//
// The interesting comparisons:
//   - ApplyBatch16 vs 16×Put: one WAL record + one commit section vs 16.
//   - MultiGet16* vs Get16Seq*: one snapshot + one iterator per table +
//     shared block decodes vs 16 independent probes.
//   - GetDuringFlush: p50 read latency while the memtable flushes — the
//     background pipeline keeps reads off the old inline-build stall.

func benchDB(b *testing.B, opts Options) *DB {
	b.Helper()
	if opts.Dir == "" {
		opts.Dir = b.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// fillTables loads n sequential keys and flushes them into tables.
func fillTables(b *testing.B, db *DB, n, valSize int) {
	b.Helper()
	val := bytes.Repeat([]byte("v"), valSize)
	batch := &Batch{}
	for i := 0; i < n; i++ {
		batch.Put([]byte(benchKey(i)), val)
		if batch.Len() == 256 {
			if err := db.Apply(batch); err != nil {
				b.Fatal(err)
			}
			batch.Reset()
		}
	}
	if err := db.Apply(batch); err != nil {
		b.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
}

func benchKey(i int) string { return fmt.Sprintf("key%08d", i) }

func BenchmarkLSMPut(b *testing.B) {
	db := benchDB(b, Options{DisableWAL: true, MemtableBytes: 1 << 30})
	val := bytes.Repeat([]byte("v"), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(benchKey(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSMApplyBatch16(b *testing.B) {
	db := benchDB(b, Options{DisableWAL: true, MemtableBytes: 1 << 30})
	val := bytes.Repeat([]byte("v"), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := &Batch{}
		for j := 0; j < 16; j++ {
			batch.Put([]byte(benchKey(i*16+j)), val)
		}
		if err := db.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*16)/float64(b.Elapsed().Nanoseconds())*1e9, "keys/s")
}

// BenchmarkLSMPutParallelWAL: concurrent single-key writers under
// wal.SyncAlways, the zero value of Options.WALSyncPolicy, which no
// non-test caller runs. Apply commits one writer at a time, so each Put
// pays its own fsync; this is what that costs.
func BenchmarkLSMPutParallelWAL(b *testing.B) {
	db := benchDB(b, Options{MemtableBytes: 1 << 30})
	val := bytes.Repeat([]byte("v"), 100)
	var n atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := n.Add(1)
			if err := db.Put([]byte(benchKey(int(i))), val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLSMGetWarm(b *testing.B) {
	db := benchDB(b, Options{DisableWAL: true})
	fillTables(b, db, 10000, 100)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(benchKey(rng.Intn(10000)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSMGetColdCache(b *testing.B) {
	db := benchDB(b, Options{DisableWAL: true, BlockCacheBytes: -1})
	fillTables(b, db, 10000, 100)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(benchKey(rng.Intn(10000)))); err != nil {
			b.Fatal(err)
		}
	}
}

// adjacentRun returns 16 keys from a random contiguous run — the MGET
// shape the tiered batch path produces for range-local workloads, where
// one decoded block serves several keys.
func adjacentRun(rng *rand.Rand, n int) [][]byte {
	start := rng.Intn(n - 16)
	keys := make([][]byte, 16)
	for j := range keys {
		keys[j] = []byte(benchKey(start + j))
	}
	return keys
}

func BenchmarkLSMMultiGet16ColdCache(b *testing.B) {
	db := benchDB(b, Options{DisableWAL: true, BlockCacheBytes: -1})
	fillTables(b, db, 10000, 100)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, found, err := db.MultiGet(adjacentRun(rng, 10000))
		if err != nil {
			b.Fatal(err)
		}
		for _, ok := range found {
			if !ok {
				b.Fatal("missing key")
			}
		}
	}
}

// BenchmarkLSMGet16SeqColdCache is the per-key baseline for MultiGet16:
// the same 16 adjacent keys issued as sequential Gets.
func BenchmarkLSMGet16SeqColdCache(b *testing.B) {
	db := benchDB(b, Options{DisableWAL: true, BlockCacheBytes: -1})
	fillTables(b, db, 10000, 100)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range adjacentRun(rng, 10000) {
			if _, err := db.Get(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLSMGetDuringFlush measures point-read latency while a writer
// keeps tripping memtable rotations. With the inline-flush design every
// reader stalled behind the SSTable build; with the background pipeline a
// rotation costs readers one pointer swap.
func BenchmarkLSMGetDuringFlush(b *testing.B) {
	db := benchDB(b, Options{DisableWAL: true, MemtableBytes: 256 << 10})
	fillTables(b, db, 10000, 100)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		val := bytes.Repeat([]byte("w"), 1024)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Put([]byte(benchKey(i%10000)), val); err != nil {
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(benchKey(rng.Intn(10000)))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkLSMSequentialLoad is the ledger's prefill as the storage tier
// sees it: two writers, each with its own ascending run of keys (writer w
// owns the keys k with k mod 2 == w), 256 B values in batches of 256 until
// 64 MiB of user bytes are in, default options, then CompactAll. An
// ascending load is where a leveled LSM can move tables instead of
// rewriting them: compactions-moves is the number of merges that ran, and
// compaction-B/user-B the table bytes they wrote per byte loaded.
func BenchmarkLSMSequentialLoad(b *testing.B) {
	const (
		valSize   = 256
		batchKeys = 256
		userBytes = 64 << 20
	)
	perWriter := userBytes / (len(benchKey(0)) + valSize) / 2
	val := bytes.Repeat([]byte("v"), valSize)
	b.ReportAllocs()
	var st Stats
	for i := 0; i < b.N; i++ {
		db, err := Open(Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		errs := make(chan error, 2)
		for w := 0; w < 2; w++ {
			go func(w int) {
				batch := &Batch{}
				for k := 0; k < perWriter; k++ {
					batch.Put([]byte(benchKey(2*k+w)), val)
					if batch.Len() == batchKeys || k == perWriter-1 {
						if err := db.Apply(batch); err != nil {
							errs <- err
							return
						}
						batch.Reset()
					}
				}
				errs <- nil
			}(w)
		}
		for w := 0; w < 2; w++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		db.CompactAll()
		st = db.Stats()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Compactions), "compactions")
	b.ReportMetric(float64(st.Moves), "moves")
	b.ReportMetric(float64(st.CompactionBytes)/float64(st.WriteBytes), "compaction-B/user-B")
}
