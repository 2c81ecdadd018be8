package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tierbase/internal/compress"
)

// heapKeys is large enough that per-stripe index tables sit at a typical
// load factor and the runtime's own noise (a few hundred KB) is under 1%.
const heapKeys = 100_000

// tailCompressor is the tests' stand-in for a trained compressor: it
// stores a value as the length of the bytes before its run of trailing
// zero bytes and the length of the run, then those bytes, so a test picks
// the stored size exactly by choosing how much of a value is zero tail,
// and the encoding says where it ends, as a real codec's does.
type tailCompressor struct{}

func (tailCompressor) Name() string         { return "tail" }
func (tailCompressor) Train([][]byte) error { return nil }

func (tailCompressor) Compress(src []byte) []byte {
	body := bytes.TrimRight(src, "\x00")
	out := make([]byte, 0, 2*binary.MaxVarintLen64+len(body)) // one allocation, like a real codec
	out = binary.AppendUvarint(out, uint64(len(body)))
	out = binary.AppendUvarint(out, uint64(len(src)-len(body)))
	return append(out, body...)
}

// tailHeader reads the two lengths, and where the body starts.
func tailHeader(src []byte) (body, zeros uint64, n int, err error) {
	body, w := binary.Uvarint(src)
	if w <= 0 {
		return 0, 0, 0, compress.ErrCorrupt
	}
	zeros, z := binary.Uvarint(src[w:])
	if z <= 0 || body > uint64(len(src)-w-z) {
		return 0, 0, 0, compress.ErrCorrupt
	}
	return body, zeros, w + z, nil
}

func (tailCompressor) Decompress(src []byte) ([]byte, error) {
	body, zeros, n, err := tailHeader(src)
	if err != nil || uint64(len(src)-n) != body {
		return nil, compress.ErrCorrupt
	}
	out := make([]byte, int(body+zeros))
	copy(out, src[n:])
	return out, nil
}

func (tailCompressor) Len(enc []byte) (int, error) {
	body, _, n, err := tailHeader(enc)
	return n + int(body), err
}

var _ compress.Compressor = tailCompressor{}

// zeroTailed returns a value of n random non-zero bytes followed by tail
// zero bytes: tailCompressor stores it in n+2 bytes (up to 127 of each).
func zeroTailed(rng *rand.Rand, n, tail int) []byte {
	val := make([]byte, n+tail)
	rng.Read(val[:n])
	for i := range val[:n] {
		val[i] |= 1
	}
	return val
}

// heapAfterGC returns the live heap once garbage is gone.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fillHeapKeys stores heapKeys keys of keyFormat (of key i) whose stored
// value is stored bytes long (compressed from twice that when compressed
// is set), with a TTL on each when ttl is set, and returns the heap growth
// the engine caused. Keys are formatted on the fly: the engine must own
// every byte it keeps.
func fillHeapKeys(e *Engine, keyFormat string, stored int, compressed, ttl bool) int64 {
	rng := rand.New(rand.NewSource(1))
	before := heapAfterGC()
	for i := 0; i < heapKeys; i++ {
		val := zeroTailed(rng, stored, 0)
		if compressed {
			val = zeroTailed(rng, stored-2, stored+2)
		}
		key := fmt.Sprintf(keyFormat, i)
		if err := e.Set(key, val); err != nil {
			panic(err)
		}
		if ttl {
			expire(e, key, time.Hour)
		}
	}
	return int64(heapAfterGC()) - int64(before)
}

// heldVsHeap checks the accounting identity on a filled engine: what the
// engine says its contents occupy plus what its slab pages hold idle is
// the heap it grew, within 5%.
func heldVsHeap(t *testing.T, e *Engine, heap int64, keys int) (perKey float64) {
	t.Helper()
	st := e.Stats()
	if st.MemBytes != e.MemUsed() {
		t.Errorf("Stats().MemBytes %d != MemUsed %d", st.MemBytes, e.MemUsed())
	}
	ratio := float64(st.MemBytes+st.FreeBytes) / float64(heap)
	t.Logf("heap %.1f B/key, accounted %.1f B/key, free %.1f B/key, ratio %.3f",
		float64(heap)/float64(keys), float64(st.MemBytes)/float64(keys), float64(st.FreeBytes)/float64(keys), ratio)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("MemUsed %d + free %d vs heap growth %d: ratio %.3f outside [0.95, 1.05]",
			st.MemBytes, st.FreeBytes, heap, ratio)
	}
	return float64(heap) / float64(keys)
}

// TestMemUsedTracksHeap is the accounting contract: MemUsed is the bytes
// the engine's contents occupy and Stats().FreeBytes the page bytes it
// holds beside them, not guesses. Their sum is checked against the Go heap
// for the stored-value sizes of the ledger's workloads (18 B: PBC'd KV1
// records, which were 38 B under the per-slot-tagged format; 128 B;
// 256 B), with and without TTLs and a compressor.
func TestMemUsedTracksHeap(t *testing.T) {
	for _, stored := range []int{18, 38, 128, 256} {
		for _, compressed := range []bool{false, true} {
			for _, ttl := range []bool{false, true} {
				name := fmt.Sprintf("stored=%d/compressed=%v/ttl=%v", stored, compressed, ttl)
				t.Run(name, func(t *testing.T) {
					opts := Options{}
					if compressed {
						opts.Compressor = tailCompressor{}
					}
					e := New(opts)
					heap := fillHeapKeys(e, "user:%09d", stored, compressed, ttl)
					perKey := heldVsHeap(t, e, heap, heapKeys)
					// The ledger's hit-read record, then and now: one
					// allocation per record behind a 16-byte slot spent
					// 69 B and 85 B of heap on them, versioned records in
					// 8-byte slots 52 B and 76 B, the map[string]*item
					// layout 243 B on the second.
					if limit := map[int]float64{18: 48, 38: 68}[stored]; limit != 0 && !ttl && perKey > limit {
						t.Errorf("heap per key = %.1f B, want <= %.0f", perKey, limit)
					}
					e.FlushAll()
					if st := e.Stats(); st.MemBytes != 0 || st.FreeBytes != 0 {
						t.Errorf("after FlushAll: MemBytes %d, FreeBytes %d, want 0 and 0", st.MemBytes, st.FreeBytes)
					}
					runtime.KeepAlive(e)
				})
			}
		}
	}
}

// TestMemUsedTracksHeapUnderChurn: freed slots are reported, not lost.
// Every key is overwritten three times with stored sizes drawn from three
// slot sizes, then half are deleted; the identity still holds, the bytes
// the churn left idle show in FreeBytes, and MemUsed is exactly what the
// surviving contents occupy.
func TestMemUsedTracksHeapUnderChurn(t *testing.T) {
	e := New(Options{})
	rng := rand.New(rand.NewSource(2))
	before := heapAfterGC()
	key := func(i int) string { return fmt.Sprintf("user:%09d", i) }
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < heapKeys; i++ {
			if err := e.Set(key(i), zeroTailed(rng, []int{18, 38, 128}[rng.Intn(3)], 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < heapKeys; i += 2 {
		e.Del(key(i))
	}
	heap := int64(heapAfterGC()) - int64(before)
	heldVsHeap(t, e, heap, heapKeys/2)
	if free := e.Stats().FreeBytes; free < heapKeys/2*34 {
		t.Errorf("FreeBytes = %d after deleting %d records of 34 B and more", free, heapKeys/2)
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(e)
}

// TestMemUsedTracksHeapOwnAllocations: values past the slab limit are
// allocations of their own, charged at the allocator's size.
func TestMemUsedTracksHeapOwnAllocations(t *testing.T) {
	const keys = 48
	e := New(Options{})
	rng := rand.New(rand.NewSource(3))
	before := heapAfterGC()
	for i := 0; i < keys; i++ {
		if err := e.Set(fmt.Sprintf("blob:%04d", i), zeroTailed(rng, 1<<20, 0)); err != nil {
			t.Fatal(err)
		}
	}
	heap := int64(heapAfterGC()) - int64(before)
	heldVsHeap(t, e, heap, keys)
	if free := e.Stats().FreeBytes; free != 0 {
		t.Errorf("FreeBytes = %d with no record in a page", free)
	}
	e.Del("blob:0007")
	if got, want := e.MemUsed(), int64(keys-1)*(1<<20); got < want || got > want+want/20 {
		t.Errorf("MemUsed = %d after a delete, want about %d", got, want)
	}
	runtime.KeepAlive(e)
}

// TestEngineAllocs pins the allocations of the hot calls: a raw Set over
// an existing key assembles the record in its slot, a compressed one
// allocates only the codec's result, and a Get only the value it returns.
// An MGetDetail of 16 keys allocates the 16 values it returns and six
// slices of its own: the results, the wrong-type flags, and the batch's
// probes, packed keys, stripe counts and order.
func TestEngineAllocs(t *testing.T) {
	raw, comp := New(Options{}), New(Options{Compressor: tailCompressor{}})
	rng := rand.New(rand.NewSource(4))
	val, tailed := zeroTailed(rng, 64, 0), zeroTailed(rng, 40, 40)
	raw.Set("k", val)
	comp.Set("k", tailed)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%02d", i)
		raw.Set(keys[i], val)
		comp.Set(keys[i], tailed)
	}
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"raw Set", 0, func() { raw.Set("k", val) }},
		{"raw Get", 1, func() { raw.Get("k") }},
		{"compressed Set", 1, func() { comp.Set("k", tailed) }},
		{"compressed Get", 1, func() { comp.Get("k") }},
		{"raw MGetDetail of 16", 22, func() { raw.MGetDetail(keys) }},
		{"compressed MGetDetail of 16", 22, func() { comp.MGetDetail(keys) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got != c.want {
			t.Errorf("%s: %.1f allocs, want %.0f", c.name, got, c.want)
		}
	}
}

// TestAllocBytesMatchesRuntime: the accounting's idea of an allocation's
// size is the running allocator's, small classes and whole pages alike.
func TestAllocBytesMatchesRuntime(t *testing.T) {
	for n := 1; n < 100_000; n += 1 + n/16 {
		if got, want := allocBytes(n), cap(append([]byte(nil), make([]byte, n)...)); got != int64(want) {
			t.Fatalf("allocBytes(%d) = %d, the runtime allocates %d", n, got, want)
		}
	}
}

// TestChargeMatchesHeap: MemUsed is what the engine's keys occupy, for
// every kind of key, and not an estimate: over the heap a fill grew (after
// GC), it is within 15% for strings of three sizes (the largest past the
// slab limit), for lists, sets, sorted sets and hashes of 1, 8 and 64
// elements of 14 bytes (hash values 12), built through their commands: a
// list or a set by one command, a sorted set or a hash an element at a
// time, and for records of either index width and either form. Each fill
// grows the heap by some 8 MiB, so that what MemUsed leaves out, the head
// pages' uncarved tails and the slots the last collection built in each
// stripe freed on its way up, stays small beside it. Sixteen stripes hold
// half a megabyte of slab each, and their tables keep 1-byte highs; one
// stripe holding all 8 MiB widens its tables to 2-byte highs. Every
// string's key is of its stripe's shape, so a raw string in an engine
// without a codec, or a compressed one in an engine with one, is bare,
// and a raw one beside a codec keeps its header byte.
func TestChargeMatchesHeap(t *testing.T) {
	const fill = 8 << 20
	elems := make([][]byte, 64)
	members := make([]string, len(elems))
	for i := range elems {
		members[i] = fmt.Sprintf("element-%06d", i)
		elems[i] = []byte(members[i])
	}
	type kind struct {
		name string
		each int // bytes an element adds to a record
		add  func(e *Engine, key string, n int)
	}
	kinds := []kind{
		{"list", 16, func(e *Engine, key string, n int) { e.RPush(key, elems[:n]...) }},
		{"set", 16, func(e *Engine, key string, n int) { e.SAdd(key, members[:n]...) }},
		{"zset", 24, func(e *Engine, key string, n int) {
			for i, m := range members[:n] {
				e.ZAdd(key, m, float64(i%5))
			}
		}},
		{"hash", 30, func(e *Engine, key string, n int) {
			for _, m := range members[:n] {
				e.HSet(key, m, []byte(m[2:]))
			}
		}},
	}
	type fillCase struct {
		name   string
		perKey int // bytes a key costs, roughly
		add    func(e *Engine, key string)
		opts   Options
		wide   bool // the stripes' tables take 2-byte highs
		bare   bool // the records are bare
	}
	var cases []fillCase
	for _, size := range []int{16, 200, 2000} {
		val := make([]byte, size)
		cases = append(cases, fillCase{name: fmt.Sprintf("string/%dB", size), perKey: size + 20, add: func(e *Engine, key string) { e.Set(key, val) }, bare: true})
	}
	for _, k := range kinds {
		for _, n := range []int{1, 8, 64} {
			cases = append(cases, fillCase{name: fmt.Sprintf("%s/%d", k.name, n), perKey: 20 + n*k.each, add: func(e *Engine, key string) { k.add(e, key, n) }})
		}
	}
	val, tailed := make([]byte, 200), make([]byte, 40)
	for i := range val {
		val[i] = byte(i) | 1
	}
	copy(tailed, val[:20]) // 22 bytes compressed
	cases = append(cases,
		fillCase{name: "string/200B/one-stripe", perKey: 220, add: func(e *Engine, key string) { e.Set(key, val) }, opts: Options{Shards: 1}, wide: true, bare: true},
		fillCase{name: "compressed/22B", perKey: 30, add: func(e *Engine, key string) { e.Set(key, tailed) }, opts: Options{Compressor: tailCompressor{}}, bare: true},
		fillCase{name: "raw-beside-codec/16B", perKey: 36, add: func(e *Engine, key string) { e.Set(key, val[:16]) }, opts: Options{Compressor: tailCompressor{}, CompressMin: 1 << 10}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.opts)
			keys := min(200_000, fill/c.perKey)
			before := heapAfterGC()
			for i := 0; i < keys; i++ {
				c.add(e, fmt.Sprintf("c%07d", i))
			}
			heap := int64(heapAfterGC()) - int64(before)
			ratio := float64(e.MemUsed()) / float64(heap)
			t.Logf("%d keys: heap %.1f B/key, MemUsed %.1f B/key, ratio %.3f",
				keys, float64(heap)/float64(keys), float64(e.MemUsed())/float64(keys), ratio)
			if ratio < 0.85 || ratio > 1.15 {
				t.Errorf("MemUsed %d over heap growth %d: ratio %.3f outside [0.85, 1.15]", e.MemUsed(), heap, ratio)
			}
			for i, s := range e.shards {
				bare := 0
				s.strs.each(func(rec record) bool {
					if rec.bare {
						bare++
					}
					return true
				})
				if s.strs.wide != c.wide || (bare == s.strs.n) != c.bare {
					t.Errorf("stripe %d: 2-byte highs %v, want %v; %d of %d records bare, want all: %v", i, s.strs.wide, c.wide, bare, s.strs.n, c.bare)
				}
			}
			runtime.KeepAlive(e)
		})
	}
}
