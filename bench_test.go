// Benchmark entry points: one testing.B target per paper table/figure
// (wrapping the internal/bench drivers) plus ablation benchmarks for
// individual design decisions, plus component microbenchmarks. Regenerate
// everything with:
//
//	go test -bench=. -benchmem
//
// or run individual experiments with full output via cmd/tierbase-bench.
package tierbase_test

import (
	"fmt"
	"testing"
	"time"

	"math/rand"
	"tierbase"
	"tierbase/internal/bench"
	"tierbase/internal/cache"
	"tierbase/internal/compress"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"

	"tierbase/internal/workload"
)

// benchScale keeps experiment wrappers fast under `go test -bench=.`;
// use cmd/tierbase-bench -scale for full-size runs.
const benchScale = 0.05

func runExperiment(b *testing.B, id string) {
	b.Helper()
	var e bench.Experiment
	for _, x := range bench.Registry() {
		if x.ID == id {
			e = x
		}
	}
	if e.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(bench.RunOpts{Scale: benchScale, Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.String())
		}
	}
}

// --- one bench per paper artifact ---

func BenchmarkFig1CostComparison(b *testing.B)        { runExperiment(b, "fig1") }
func BenchmarkFig7CachingPerformance(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig8Persistence(b *testing.B)           { runExperiment(b, "fig8") }
func BenchmarkTable2Compression(b *testing.B)         { runExperiment(b, "tab2") }
func BenchmarkFig9ElasticThreading(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkFig10CachingCost(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFig11PersistentCost(b *testing.B)       { runExperiment(b, "fig11") }
func BenchmarkFig12CaseStudies(b *testing.B)          { runExperiment(b, "fig12") }
func BenchmarkFig13aCompressionTradeoff(b *testing.B) { runExperiment(b, "fig13a") }
func BenchmarkFig13bCacheRatioTradeoff(b *testing.B)  { runExperiment(b, "fig13b") }
func BenchmarkTable3BreakEven(b *testing.B)           { runExperiment(b, "tab3") }

// --- ablations ---

// BenchmarkAblationWriteBackBatch measures dirty-batch flushing: storage
// round trips per write as FlushBatch grows.
func BenchmarkAblationWriteBackBatch(b *testing.B) {
	for _, batch := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			stor := cache.NewMapStorage()
			remote := cache.NewRemote(stor, 0)
			tr, err := cache.New(cache.Options{
				Policy: cache.WriteBack, Engine: engine.New(engine.Options{}),
				Storage: remote, FlushBatch: batch, FlushInterval: time.Hour,
				MaxDirty: batch * 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Set(fmt.Sprintf("k%06d", i), []byte("v"))
			}
			tr.FlushDirty()
			b.StopTimer()
			b.ReportMetric(float64(remote.TotalRPCs())/float64(b.N), "rpc/op")
			tr.Close()
		})
	}
}

// BenchmarkAblationBloom measures negative lookups on the LSM read path,
// which every table's bloom filter answers without reading a data block.
// Filters are always built, so there is no filter-off leg to set beside it.
func BenchmarkAblationBloom(b *testing.B) {
	db, err := lsm.Open(lsm.Options{Dir: b.TempDir(), DisableWAL: true, MemtableBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5000; i++ {
		db.Put([]byte(fmt.Sprintf("present%06d", i)), []byte("v"))
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("absent%07d", i)))
	}
}

// BenchmarkAblationMemtable compares the skiplist memtable against a
// naive sorted-array alternative on mixed insert/lookup.
func BenchmarkAblationMemtable(b *testing.B) {
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i*2654435761%4096))
	}
	b.Run("skiplist", func(b *testing.B) {
		db, err := lsm.Open(lsm.Options{Dir: b.TempDir(), DisableWAL: true, MemtableBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			db.Put(k, k)
			db.Get(k)
		}
	})
	b.Run("sorted-array", func(b *testing.B) {
		m := newSortedArrayMap()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			m.put(k, k)
			m.get(k)
		}
	})
}

// sortedArrayMap is the ablation strawman: binary-searched insertion.
type sortedArrayMap struct {
	keys [][]byte
	vals [][]byte
}

func newSortedArrayMap() *sortedArrayMap { return &sortedArrayMap{} }

func (m *sortedArrayMap) search(k []byte) (int, bool) {
	lo, hi := 0, len(m.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		c := compareBytes(m.keys[mid], k)
		if c == 0 {
			return mid, true
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

func (m *sortedArrayMap) put(k, v []byte) {
	i, ok := m.search(k)
	if ok {
		m.vals[i] = v
		return
	}
	m.keys = append(m.keys, nil)
	m.vals = append(m.vals, nil)
	copy(m.keys[i+1:], m.keys[i:])
	copy(m.vals[i+1:], m.vals[i:])
	m.keys[i], m.vals[i] = k, v
}

func (m *sortedArrayMap) get(k []byte) []byte {
	if i, ok := m.search(k); ok {
		return m.vals[i]
	}
	return nil
}

func compareBytes(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// --- component microbenchmarks ---

func BenchmarkEngineSet(b *testing.B) {
	e := engine.New(engine.Options{})
	val := workload.NewKV1().Record(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Set(fmt.Sprintf("k%07d", i%100000), val)
	}
}

func BenchmarkEngineGet(b *testing.B) {
	e := engine.New(engine.Options{})
	val := workload.NewKV1().Record(1)
	for i := 0; i < 100000; i++ {
		e.Set(fmt.Sprintf("k%07d", i), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Get(fmt.Sprintf("k%07d", i%100000))
	}
}

func BenchmarkCompressors(b *testing.B) {
	ds := workload.NewKV1()
	train := workload.Sample(ds, 300)
	recs := make([][]byte, 256)
	for i := range recs {
		recs[i] = ds.Record(int64(50000 + i))
	}
	for _, name := range []string{"pbc", "zstd-d", "zstd-b"} {
		c, err := compress.ByName(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		c.Train(train)
		b.Run(name+"/compress", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(recs[0])))
			for i := 0; i < b.N; i++ {
				c.Compress(recs[i%len(recs)])
			}
		})
		comp := make([][]byte, len(recs))
		for i := range recs {
			comp[i] = c.Compress(recs[i])
		}
		b.Run(name+"/decompress", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(recs[0])))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decompress(comp[i%len(comp)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLSMPut(b *testing.B) {
	db, err := lsm.Open(lsm.Options{Dir: b.TempDir(), DisableWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := workload.NewKV2().Record(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put([]byte(fmt.Sprintf("k%08d", i)), val)
	}
}

func BenchmarkLSMGet(b *testing.B) {
	db, err := lsm.Open(lsm.Options{Dir: b.TempDir(), DisableWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := workload.NewKV2().Record(1)
	const n = 20000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("k%08d", i)), val)
	}
	db.Flush()
	db.CompactAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%08d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreTieredWriteBack(b *testing.B) {
	store, err := tierbase.Open(tierbase.Options{
		Policy: tierbase.WriteBack, Dir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	val := workload.NewKV1().Record(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Set(fmt.Sprintf("k%07d", i%50000), val)
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := workload.NewScrambledZipfian(1_000_000, workload.ZipfianTheta)
	rng := newBenchRand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next(rng)
	}
}

func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(42)) }
