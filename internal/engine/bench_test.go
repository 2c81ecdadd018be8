package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"tierbase/internal/compress"
	"tierbase/internal/workload"
)

// Parallel mixed-workload benchmarks: the artifact behind the sharding
// decision. Run with several GOMAXPROCS settings to see the single-mutex
// engine flatline while the striped engine scales:
//
//	go test ./internal/engine -bench ParallelMixed -cpu 1,2,4,8
//
// The mix is 70% GET / 20% SET / 10% INCR over a zipf-ish hot keyspace —
// the skewed read-heavy shape of the paper's production workloads.

const benchKeySpace = 1 << 14

func benchKeys() []string {
	keys := make([]string, benchKeySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%08d", i)
	}
	return keys
}

// benchmarkParallelMixed runs the mix on an engine of opts whose key i
// holds vals[i%len(vals)], which is also what a SET of it writes.
func benchmarkParallelMixed(b *testing.B, opts Options, vals [][]byte) {
	e := New(opts)
	keys := benchKeys()
	for i, k := range keys {
		e.Set(k, vals[i%len(vals)])
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			// Skew: half the ops hit the hottest 1/16 of the keyspace.
			idx := rng.Intn(benchKeySpace)
			if rng.Intn(2) == 0 {
				idx %= benchKeySpace / 16
			}
			k := keys[idx]
			switch r := rng.Intn(10); {
			case r < 7:
				e.Get(k)
			case r < 9:
				e.Set(k, vals[idx%len(vals)])
			default:
				e.IncrBy("ctr"+k[len(k)-2:], 1)
			}
		}
	})
}

// zeros64 is the raw mix's one value.
var zeros64 = [][]byte{make([]byte, 64)}

// BenchmarkEngineParallelMixed1Shard is the pre-refactor single-mutex
// baseline (Shards: 1 reproduces it exactly).
func BenchmarkEngineParallelMixed1Shard(b *testing.B) {
	benchmarkParallelMixed(b, Options{Shards: 1}, zeros64)
}

// BenchmarkEngineParallelMixed1ShardPBC is the single-mutex mix with KV1
// values under a trained PBC codec, the shape of the ledger's hit-read:
// every GET decodes its value under the stripe's read lock, where SETs to
// the stripe wait for it.
func BenchmarkEngineParallelMixed1ShardPBC(b *testing.B) {
	ds := workload.NewKV1()
	pbc := compress.NewPBC()
	pbc.Train(workload.Sample(ds, 200))
	vals := make([][]byte, 1024)
	for i := range vals {
		vals[i] = ds.Record(int64(i))
	}
	benchmarkParallelMixed(b, Options{Shards: 1, Compressor: pbc}, vals)
}

// BenchmarkEngineParallelMixedSharded is the striped engine at the
// default stripe count.
func BenchmarkEngineParallelMixedSharded(b *testing.B) {
	benchmarkParallelMixed(b, Options{Shards: DefaultShards}, zeros64)
}

// benchmarkBatch measures the batch fast path against the equivalent
// single-op loop: one stripe lock per touched shard vs one per key.
func benchmarkBatch(b *testing.B, batched bool, batchSize int) {
	e := New(Options{})
	keys := benchKeys()
	val := make([]byte, 64)
	for _, k := range keys {
		e.Set(k, val)
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		batch := make([]string, batchSize)
		for pb.Next() {
			base := rng.Intn(benchKeySpace - batchSize)
			for i := range batch {
				batch[i] = keys[base+i]
			}
			if batched {
				if _, _, err := e.MGetDetail(batch); err != nil {
					b.Fatal(err)
				}
			} else {
				for _, k := range batch {
					if _, err := e.Get(k); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

func BenchmarkEngineGetLoop16(b *testing.B)   { benchmarkBatch(b, false, 16) }
func BenchmarkEngineMGetBatch16(b *testing.B) { benchmarkBatch(b, true, 16) }

// benchmarkRandomKey measures one call on a uniformly random key of a
// 200k-key engine: the ledger's population and access pattern, where the
// index slot and the record are usually not in cache. (GetLoop16 and
// MGetBatch16 read runs of 16 neighbouring keys out of 16k.) name makes a
// key of a random number below 1e9; mem-B/key is what the engine charges a
// key of the population, and key-B what its key takes packed.
func benchmarkRandomKey(b *testing.B, name func(n int) string, op func(e *Engine, key string, val []byte)) {
	e := New(Options{})
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 200_000)
	val := zeroTailed(rng, 18, 0)
	for i := range keys {
		keys[i] = name(rng.Intn(1e9))
		e.Set(keys[i], val)
	}
	perKey := float64(e.MemUsed()) / float64(e.Len())
	keyBytes := float64(e.Stats().PayloadBytes)/float64(e.Len()) - float64(len(val))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(e, keys[rng.Intn(len(keys))], val)
	}
	b.ReportMetric(perKey, "mem-B/key")
	b.ReportMetric(keyBytes, "key-B")
}

// keyOf is the key maker for keys of format, which takes the number.
func keyOf(format string) func(n int) string {
	return func(n int) string { return fmt.Sprintf(format, n) }
}

func getRandom(e *Engine, key string, _ []byte)   { e.Get(key) }
func setRandom(e *Engine, key string, val []byte) { e.Set(key, val) }

func BenchmarkEngineGetRandom(b *testing.B) { benchmarkRandomKey(b, keyOf("user:%09d"), getRandom) }
func BenchmarkEngineSetRandom(b *testing.B) { benchmarkRandomKey(b, keyOf("user:%09d"), setRandom) }

// BenchmarkEngineMidKey is GetRandom and SetRandom on keys that pack to 19
// bytes, past maxShortKey: each record writes its key length in a byte of
// its own, and the index compares the key through hasKey, not hasShortKey.
// The keys take three prefixes in turn, so that no shape is most of a
// stripe's keys and each key takes its ordinary form: user:%09d:session
// keys alone would pack to their stripe's shape, 5 bytes.
func BenchmarkEngineMidKey(b *testing.B) {
	name := func(n int) string {
		return fmt.Sprintf("%s:%09d:session", [...]string{"user", "cart", "item"}[n%3], n)
	}
	b.Run("Get", func(b *testing.B) { benchmarkRandomKey(b, name, getRandom) })
	b.Run("Set", func(b *testing.B) { benchmarkRandomKey(b, name, setRandom) })
}

// BenchmarkEngineHeapPerKey reports what one key costs and what the engine
// says it costs, for the ledger's hit-read record (14 B key, 18 B stored
// value): heap-B/key from the Go heap, accounted-B/key from MemUsed,
// free-B/key the slab page bytes holding no record. One op is one fill of
// heapKeys keys.
func BenchmarkEngineHeapPerKey(b *testing.B) {
	var heap int64
	var st Stats
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		heap = fillHeapKeys(e, "user:%09d", 18, false, false)
		st = e.Stats()
		runtime.KeepAlive(e)
	}
	b.ReportMetric(float64(heap)/heapKeys, "heap-B/key")
	b.ReportMetric(float64(st.MemBytes)/heapKeys, "accounted-B/key")
	b.ReportMetric(float64(st.FreeBytes)/heapKeys, "free-B/key")
}

// BenchmarkEngineHeapPerSessionKey is HeapPerKey with user:%09d:session
// keys (22 B), which pack to their stripe's shape: the value alone.
func BenchmarkEngineHeapPerSessionKey(b *testing.B) {
	var heap int64
	var st Stats
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		heap = fillHeapKeys(e, "user:%09d:session", 18, false, false)
		st = e.Stats()
		runtime.KeepAlive(e)
	}
	b.ReportMetric(float64(heap)/heapKeys, "heap-B/key")
	b.ReportMetric(float64(st.MemBytes)/heapKeys, "accounted-B/key")
	b.ReportMetric(float64(st.PayloadBytes)/heapKeys-18, "key-B")
}

// BenchmarkEngineGrow is what a growing population pays for an index that
// keeps 15 hash bits a key: 200k new keys into an empty engine, every
// resize on the way hashing each entry again from its record, spread over
// the inserts that follow it. rehash/insert is records re-hashed per key
// inserted, and max-rehash/op the most that any one Set re-hashed: what a
// resize costs the stripe's lock hold.
func BenchmarkEngineGrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 200_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%09d", rng.Intn(1e9))
	}
	val := zeroTailed(rng, 18, 0)
	rehashed, worst := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		for _, key := range keys {
			ix := &e.shards[e.ShardIndex(key)].strs
			before := ix.rehashed
			e.Set(key, val)
			rehashed += ix.rehashed - before
			worst = max(worst, ix.rehashed-before)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/insert")
	b.ReportMetric(float64(rehashed)/float64(b.N*len(keys)), "rehash/insert")
	b.ReportMetric(float64(worst), "max-rehash/op")
}

// BenchmarkEngineCollections is one write or read of each collection kind
// on a collection of 8, 64 and 1 024 elements: allocs/op and B/op say what
// a command copies, and ns/op what its walk of the collection costs. A
// write decodes the collection's record, changes it and writes it to a new
// slot, so its price grows with the collection. Each row runs once before
// it is timed, so -benchtime 1x reads the same allocs/op as a long run.
func BenchmarkEngineCollections(b *testing.B) {
	elem := []byte("element-000001")
	small := []byte("v1")
	member := func(i int) string { return fmt.Sprintf("member-%07d", i) }
	rows := []struct {
		name string
		fill func(e *Engine, i int)                // adds element i
		op   func(e *Engine, mid string, n, i int) // mid is element n/2's member or field
	}{
		{"RPush+LPop", func(e *Engine, _ int) { e.RPush("list", elem) }, func(e *Engine, _ string, _, _ int) {
			e.RPush("list", elem)
			e.LPop("list")
		}},
		{"SAdd+SRem", func(e *Engine, i int) { e.SAdd("set", member(i)) }, func(e *Engine, _ string, _, _ int) {
			e.SAdd("set", "member-absent")
			e.SRem("set", "member-absent")
		}},
		{"ZAdd", func(e *Engine, i int) { e.ZAdd("zset", member(i), float64(i)) }, func(e *Engine, mid string, n, i int) {
			e.ZAdd("zset", mid, float64(i%(2*n))) // a re-score
		}},
		{"HSet+HGet", func(e *Engine, i int) { e.HSet("hash", member(i), small) }, func(e *Engine, mid string, _, _ int) {
			e.HSet("hash", mid, small)
			e.HGet("hash", mid)
		}},
		{"HGet", func(e *Engine, i int) { e.HSet("hash", member(i), small) }, func(e *Engine, mid string, _, _ int) {
			e.HGet("hash", mid)
		}},
		{"SIsMember", func(e *Engine, i int) { e.SAdd("set", member(i)) }, func(e *Engine, mid string, _, _ int) {
			e.SIsMember("set", mid)
		}},
		{"ZScore", func(e *Engine, i int) { e.ZAdd("zset", member(i), float64(i)) }, func(e *Engine, mid string, _, _ int) {
			e.ZScore("zset", mid)
		}},
		{"LLen", func(e *Engine, _ int) { e.RPush("list", small) }, func(e *Engine, _ string, _, _ int) {
			e.LLen("list")
		}},
		{"LRange", func(e *Engine, _ int) { e.RPush("list", small) }, func(e *Engine, _ string, _, _ int) {
			e.LRange("list", 0, -1)
		}},
	}
	for _, row := range rows {
		for _, n := range []int{8, 64, 1024} {
			b.Run(fmt.Sprintf("%s/n=%d", row.name, n), func(b *testing.B) {
				e := New(Options{})
				for i := 0; i < n; i++ {
					row.fill(e, i)
				}
				mid := member(n / 2)
				row.op(e, mid, n, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					row.op(e, mid, n, i)
				}
			})
		}
	}
}
