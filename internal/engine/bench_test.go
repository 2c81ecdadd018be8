package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
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

func benchmarkParallelMixed(b *testing.B, shards int) {
	e := New(Options{Shards: shards})
	keys := benchKeys()
	val := make([]byte, 64)
	for _, k := range keys {
		e.Set(k, val)
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
				e.Set(k, val)
			default:
				e.IncrBy("ctr"+k[len(k)-2:], 1)
			}
		}
	})
}

// BenchmarkEngineParallelMixed1Shard is the pre-refactor single-mutex
// baseline (Shards: 1 reproduces it exactly).
func BenchmarkEngineParallelMixed1Shard(b *testing.B) { benchmarkParallelMixed(b, 1) }

// BenchmarkEngineParallelMixedSharded is the striped engine at the
// default stripe count.
func BenchmarkEngineParallelMixedSharded(b *testing.B) { benchmarkParallelMixed(b, DefaultShards) }

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
// MGetBatch16 read runs of 16 neighbouring keys out of 16k.)
func benchmarkRandomKey(b *testing.B, op func(e *Engine, key string, val []byte)) {
	e := New(Options{})
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 200_000)
	val := zeroTailed(rng, 18, 0)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%09d", rng.Intn(1e9))
		e.Set(keys[i], val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(e, keys[rng.Intn(len(keys))], val)
	}
}

func BenchmarkEngineGetRandom(b *testing.B) {
	benchmarkRandomKey(b, func(e *Engine, key string, _ []byte) { e.Get(key) })
}

func BenchmarkEngineSetRandom(b *testing.B) {
	benchmarkRandomKey(b, func(e *Engine, key string, val []byte) { e.Set(key, val) })
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
		heap = fillHeapKeys(e, 18, false, false)
		st = e.Stats()
		runtime.KeepAlive(e)
	}
	b.ReportMetric(float64(heap)/heapKeys, "heap-B/key")
	b.ReportMetric(float64(st.MemBytes)/heapKeys, "accounted-B/key")
	b.ReportMetric(float64(st.FreeBytes)/heapKeys, "free-B/key")
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

// BenchmarkEngineCollections is one write or read of each collection kind:
// allocs/op and B/op say what the element model copies and what a
// command's lock-and-lookup costs. A push or add onto an absent key
// creates the collection and the pop or remove that empties it deletes it,
// so those rows pay for the item as well as the element. Each row runs
// once before it is timed, so -benchtime 1x reads the same allocs/op as a
// long run.
func BenchmarkEngineCollections(b *testing.B) {
	elem := []byte("element-000001")
	small := []byte("v1")
	rows := []struct {
		name  string
		setup func(e *Engine)
		op    func(e *Engine, i int)
	}{
		{"RPush+LPop", nil, func(e *Engine, _ int) {
			e.RPush("list", elem)
			e.LPop("list")
		}},
		{"SAdd+SRem", nil, func(e *Engine, _ int) {
			e.SAdd("set", "member-0000001")
			e.SRem("set", "member-0000001")
		}},
		{"ZAdd", func(e *Engine) {
			for i := 0; i < 16; i++ {
				e.ZAdd("zset", fmt.Sprintf("member-%02d", i), float64(i))
			}
		}, func(e *Engine, i int) {
			e.ZAdd("zset", "member-07", float64(i&31)) // a re-score
		}},
		{"HSet+HGet", func(e *Engine) {
			e.HSet("hash", "field", small)
		}, func(e *Engine, _ int) {
			e.HSet("hash", "field", small)
			e.HGet("hash", "field")
		}},
		{"LLen", func(e *Engine) {
			e.RPush("list", small, small, small, small)
		}, func(e *Engine, _ int) {
			e.LLen("list")
		}},
		{"LRange", func(e *Engine) {
			e.RPush("list", small, small, small, small)
		}, func(e *Engine, _ int) {
			e.LRange("list", 0, -1)
		}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			e := New(Options{})
			if row.setup != nil {
				row.setup(e)
			}
			row.op(e, 0) // the stripe's first collection makes its map: not a row's cost
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row.op(e, i)
			}
		})
	}
}
