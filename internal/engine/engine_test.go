package engine

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tierbase/internal/compress"
	"tierbase/internal/pmem"
	"tierbase/internal/workload"
)

// expire sets a TTL of d from the engine's clock; reports whether the key
// existed.
func expire(e *Engine, key string, d time.Duration) bool {
	return e.ExpireAt(key, e.now()+int64(d))
}

// mget is MGetDetail without the wrong-type flags.
func mget(e *Engine, keys []string) ([][]byte, error) {
	vals, _, err := e.MGetDetail(keys)
	return vals, err
}

func TestSetGetDel(t *testing.T) {
	e := New(Options{})
	if err := e.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := e.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("get: %q %v", v, err)
	}
	if n := e.Del("k", "missing"); n != 1 {
		t.Fatalf("del count %d", n)
	}
	if _, err := e.Get("k"); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestGetCopiesValue(t *testing.T) {
	e := New(Options{})
	e.Set("k", []byte("orig"))
	v, _ := e.Get("k")
	v[0] = 'X'
	v2, _ := e.Get("k")
	if string(v2) != "orig" {
		t.Fatal("engine-owned memory was mutated by caller")
	}
}

func TestSetNX(t *testing.T) {
	e := New(Options{})
	ok, _ := e.SetNX("k", []byte("first"))
	if !ok {
		t.Fatal("first SetNX should store")
	}
	ok, _ = e.SetNX("k", []byte("second"))
	if ok {
		t.Fatal("second SetNX should not store")
	}
	v, _ := e.Get("k")
	if string(v) != "first" {
		t.Fatalf("got %q", v)
	}
}

func TestExistsType(t *testing.T) {
	e := New(Options{})
	e.Set("s", []byte("v"))
	e.LPush("l", []byte("a"))
	if !e.Exists("s") || !e.Exists("l") || e.Exists("nope") {
		t.Fatal("exists wrong")
	}
	if e.Type("s") != KindString || e.Type("l") != KindList || e.Type("nope") != KindNone {
		t.Fatal("type wrong")
	}
	if KindString.String() != "string" || KindNone.String() != "none" {
		t.Fatal("kind names")
	}
}

func TestWrongType(t *testing.T) {
	e := New(Options{})
	e.Set("s", []byte("v"))
	if _, err := e.LPush("s", []byte("x")); err != ErrWrongType {
		t.Fatalf("lpush on string: %v", err)
	}
	if _, err := e.Get("s"); err != nil {
		t.Fatal(err)
	}
	e.LPush("l", []byte("x"))
	if _, err := e.Get("l"); err != ErrWrongType {
		t.Fatalf("get on list: %v", err)
	}
}

func TestIncrBy(t *testing.T) {
	e := New(Options{})
	v, err := e.IncrBy("ctr", 5)
	if err != nil || v != 5 {
		t.Fatalf("incr: %d %v", v, err)
	}
	v, _ = e.IncrBy("ctr", -2)
	if v != 3 {
		t.Fatalf("incr: %d", v)
	}
	raw, _ := e.Get("ctr")
	if string(raw) != "3" {
		t.Fatalf("stored %q", raw)
	}
	e.Set("s", []byte("not-a-number"))
	if _, err := e.IncrBy("s", 1); err != ErrNotInteger {
		t.Fatalf("want ErrNotInteger, got %v", err)
	}
}

func TestCompareAndSet(t *testing.T) {
	e := New(Options{})
	// CAS on absent key with nil old = create.
	if err := e.CompareAndSet("k", nil, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Wrong old value.
	if err := e.CompareAndSet("k", []byte("wrong"), []byte("v2")); err != ErrCASMismatch {
		t.Fatalf("want mismatch, got %v", err)
	}
	// Correct old value.
	if err := e.CompareAndSet("k", []byte("v1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _ := e.Get("k")
	if string(v) != "v2" {
		t.Fatalf("got %q", v)
	}
	// CAS expecting absence on a present key.
	if err := e.CompareAndSet("k", nil, []byte("v3")); err != ErrCASMismatch {
		t.Fatalf("want mismatch, got %v", err)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("k", []byte("v"))
	if !expire(e, "k", time.Second) {
		t.Fatal("expire on present key")
	}
	if ttl, ok := e.TTL("k"); !ok || ttl != time.Second {
		t.Fatalf("ttl %v %v", ttl, ok)
	}
	now = now.Add(2 * time.Second)
	if _, err := e.Get("k"); err != ErrNotFound {
		t.Fatalf("expired key should be gone: %v", err)
	}
	if e.Exists("k") {
		t.Fatal("exists after expiry")
	}
}

func TestPersist(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("k", []byte("v"))
	expire(e, "k", time.Second)
	if !e.Persist("k") {
		t.Fatal("persist failed")
	}
	now = now.Add(time.Hour)
	if !e.Exists("k") {
		t.Fatal("persisted key expired")
	}
	if _, ok := e.TTL("k"); ok {
		t.Fatal("TTL should be cleared")
	}
}

// sweepExpired is the active expiration cycle as the cache tier runs it:
// look at up to limit keys, take the lapsed ones. Returns how many it took.
func sweepExpired(e *Engine, limit int) int {
	taken := 0
	for _, k := range e.CollectExpired(limit) {
		if e.TakeExpired(k) {
			taken++
		}
	}
	return taken
}

func TestSweepExpired(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%d", i)
		e.Set(k, []byte("v"))
		if i%2 == 0 {
			expire(e, k, time.Second)
		}
	}
	now = now.Add(time.Minute)
	removed := sweepExpired(e, 1000)
	if removed != 25 {
		t.Fatalf("swept %d, want 25", removed)
	}
	if e.Len() != 25 {
		t.Fatalf("len %d", e.Len())
	}
}

func TestOverwriteResetsTTL(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("k", []byte("v1"))
	expire(e, "k", time.Second)
	e.Set("k", []byte("v2"))
	now = now.Add(time.Minute)
	if !e.Exists("k") {
		t.Fatal("SET should clear TTL (Redis semantics)")
	}
}

func TestMemAccounting(t *testing.T) {
	e := New(Options{})
	if e.MemUsed() != 0 {
		t.Fatal("fresh engine nonzero")
	}
	e.Set("key1", make([]byte, 1000))
	used := e.MemUsed()
	if used < 1000 {
		t.Fatalf("used %d too small", used)
	}
	e.Del("key1")
	if e.MemUsed() != 0 {
		t.Fatalf("leak after delete: %d", e.MemUsed())
	}
}

func TestMemAccountingNeverNegativeProperty(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val []byte
		Del bool
	}) bool {
		e := New(Options{})
		for _, op := range ops {
			k := fmt.Sprintf("k%d", op.Key%16)
			if op.Del {
				e.Del(k)
			} else {
				e.Set(k, op.Val)
			}
			if e.MemUsed() < 0 {
				return false
			}
		}
		e.FlushAll()
		return e.MemUsed() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionTransparent(t *testing.T) {
	ds := workload.NewKV1()
	pbc := compress.NewPBC()
	pbc.Train(workload.Sample(ds, 200))
	e := New(Options{Compressor: pbc})
	val := ds.Record(9999)
	e.Set("k", val)
	got, err := e.Get("k")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("compressed roundtrip: %v", err)
	}
}

func TestCompressionSavesMemory(t *testing.T) {
	ds := workload.NewKV2()
	dict := compress.NewDeflate(6, true)
	dict.Train(workload.Sample(ds, 300))

	plain := New(Options{})
	comp := New(Options{Compressor: dict})
	for i := int64(0); i < 200; i++ {
		k := fmt.Sprintf("key%05d", i)
		plain.Set(k, ds.Record(i))
		comp.Set(k, ds.Record(i))
	}
	if comp.MemUsed() >= plain.MemUsed() {
		t.Fatalf("compression did not save memory: %d vs %d", comp.MemUsed(), plain.MemUsed())
	}
}

func TestCompressionMonitorWired(t *testing.T) {
	ds := workload.NewKV1()
	pbc := compress.NewPBC()
	pbc.Train(workload.Sample(ds, 100))
	mon := compress.NewMonitor(0.5)
	e := New(Options{Compressor: pbc, Monitor: mon, CompressMin: 1})
	for i := int64(0); i < 50; i++ {
		e.Set(fmt.Sprintf("k%d", i), ds.Record(5000+i))
	}
	if mon.Records() != 50 {
		t.Fatalf("monitor saw %d records", mon.Records())
	}
}

func TestPMemOffload(t *testing.T) {
	arena := pmem.NewArena(pmem.OpenVolatile(1<<20, pmem.Latency{}))
	e := New(Options{Arena: arena})
	small := []byte("tiny")
	big := bytes.Repeat([]byte("B"), 500)
	e.Set("small", small)
	e.Set("big", big)
	st := e.Stats()
	if st.PMemUsed == 0 {
		t.Fatal("big value should be in PMem")
	}
	// DRAM usage should not include the big value body.
	if st.MemBytes > int64(len(small))+600 {
		t.Fatalf("DRAM usage too high: %d", st.MemBytes)
	}
	got, err := e.Get("big")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("pmem roundtrip: %v", err)
	}
	// Delete must free the arena allocation.
	e.Del("big")
	if e.Stats().PMemUsed != 0 {
		t.Fatalf("pmem leak: %d", e.Stats().PMemUsed)
	}
}

func TestPMemWithCompression(t *testing.T) {
	ds := workload.NewKV2()
	dict := compress.NewDeflate(6, true)
	dict.Train(workload.Sample(ds, 200))
	arena := pmem.NewArena(pmem.OpenVolatile(1<<20, pmem.Latency{}))
	e := New(Options{Compressor: dict, Arena: arena})
	val := ds.Record(7777)
	e.Set("k", val)
	if e.Stats().PMemUsed == 0 {
		t.Fatal("compressed value should be in PMem")
	}
	got, err := e.Get("k")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("pmem+compress roundtrip: %v", err)
	}
}

// TestPMemPlacement pins where encode puts a value: in the arena when its
// stored bytes, after compression, are at least pmemMin, and in DRAM below
// that or when the arena is full.
func TestPMemPlacement(t *testing.T) {
	newArena := func(size int) *pmem.Arena { return pmem.NewArena(pmem.OpenVolatile(size, pmem.Latency{})) }
	roundTrip := func(t *testing.T, e *Engine, key string, val []byte) {
		t.Helper()
		if err := e.Set(key, val); err != nil {
			t.Fatal(err)
		}
		if got, err := e.Get(key); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("Get(%s) = %d B, %v; want the %d B written", key, len(got), err, len(val))
		}
	}

	t.Run("threshold", func(t *testing.T) {
		e := New(Options{Arena: newArena(1 << 20)})
		roundTrip(t, e, "short", bytes.Repeat([]byte("s"), pmemMin-1))
		if used := e.Stats().PMemUsed; used != 0 {
			t.Fatalf("a %d B value put %d B in PMem", pmemMin-1, used)
		}
		roundTrip(t, e, "long", bytes.Repeat([]byte("l"), pmemMin))
		if e.Stats().PMemUsed == 0 {
			t.Fatalf("a %d B value stayed in DRAM", pmemMin)
		}
	})

	t.Run("compressed below threshold", func(t *testing.T) {
		e := New(Options{Compressor: compress.NewDeflate(6, false), Arena: newArena(1 << 20)})
		roundTrip(t, e, "k", bytes.Repeat([]byte("c"), 4*pmemMin))
		if used := e.Stats().PMemUsed; used != 0 {
			t.Fatalf("a value compressed below %d B put %d B in PMem", pmemMin, used)
		}
	})

	t.Run("arena full", func(t *testing.T) {
		// The arena's 64 B header slot, then one 96 B size class: room
		// for one 64 B value and its 4 B length.
		e := New(Options{Arena: newArena(64 + 96)})
		roundTrip(t, e, "first", bytes.Repeat([]byte("f"), pmemMin))
		used := e.Stats().PMemUsed
		if used == 0 {
			t.Fatal("the first value stayed in DRAM")
		}
		roundTrip(t, e, "second", bytes.Repeat([]byte("s"), pmemMin))
		if got := e.Stats().PMemUsed; got != used {
			t.Fatalf("PMemUsed %d -> %d for a value the full arena has no room for", used, got)
		}
		if e.Del("second") != 1 {
			t.Fatal("Del(second) found no key")
		}
		if got := e.Stats().PMemUsed; got != used {
			t.Fatalf("deleting the DRAM value moved PMemUsed %d -> %d", used, got)
		}
	})
}

func TestHitMissStats(t *testing.T) {
	e := New(Options{})
	e.Set("k", []byte("v"))
	e.Get("k")
	e.Get("k")
	e.Get("missing")
	st := e.Stats()
	if st.Keys != 1 {
		t.Fatalf("keys=%d", st.Keys)
	}
}

// TestSnapshotWalkDecodesStrings: the walk yields strings decoded, marks
// collections as encoded blobs, and stops when fn says so.
func TestSnapshotWalkDecodesStrings(t *testing.T) {
	e := New(Options{})
	e.Set("a", []byte("1"))
	e.Set("b", []byte("2"))
	e.LPush("l", []byte("x"))
	seen := map[string]string{}
	err := walkHolds(e, func(chunk []walkedKey) bool {
		for _, p := range chunk {
			if p.Encoded != (p.Key == "l") {
				t.Errorf("%s: Encoded %v", p.Key, p.Encoded)
			}
			seen[p.Key] = string(p.Val)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen["a"] != "1" || seen["b"] != "2" {
		t.Fatalf("seen: %v", seen)
	}
	// Early stop: fn sees the first hold's entries and nothing after.
	calls := 0
	walkHolds(e, func(chunk []walkedKey) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop: fn called %d times", calls)
	}
}

func TestFlushAll(t *testing.T) {
	arena := pmem.NewArena(pmem.OpenVolatile(1<<20, pmem.Latency{}))
	e := New(Options{Arena: arena})
	for i := 0; i < 10; i++ {
		e.Set(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("v"), 100))
	}
	e.FlushAll()
	if e.Len() != 0 || e.MemUsed() != 0 || e.Stats().PMemUsed != 0 {
		t.Fatalf("flush left residue: %+v", e.Stats())
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	e := New(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%50)
				switch g % 4 {
				case 0:
					e.Set(k, []byte("v"))
				case 1:
					e.Get(k)
				case 2:
					e.IncrBy(fmt.Sprintf("ctr%d", g), 1)
				case 3:
					e.Del(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if e.MemUsed() < 0 {
		t.Fatal("negative memory accounting after concurrency")
	}
}

// TestParseAppendIntRoundTrip: a counter is stored as its decimal text,
// so every int64, the two ends included, reads back through IncrBy and is
// written back as the same digits.
func TestParseAppendIntRoundTrip(t *testing.T) {
	e := New(Options{})
	f := func(v int64) bool {
		text := strconv.FormatInt(v, 10)
		e.Set("n", []byte(text))
		got, err := e.IncrBy("n", 0)
		raw, _ := e.Get("n")
		return err == nil && got == v && string(raw) == text
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		if !f(v) {
			t.Fatalf("%d did not round trip", v)
		}
	}
}

// TestIncrByRefusesOutOfRange: a stored value that is not an int64 is
// ErrNotInteger, a step past either end of int64 is ErrOverflow, and
// either leaves the value as it was. The ends themselves are reachable.
func TestIncrByRefusesOutOfRange(t *testing.T) {
	e := New(Options{})
	for _, bad := range []string{"", "-", "12x", "99999999999999999999", "-9223372036854775809"} {
		e.Set("n", []byte(bad))
		if v, err := e.IncrBy("n", 1); err != ErrNotInteger {
			t.Fatalf("INCR of %q: %d, %v; want ErrNotInteger", bad, v, err)
		}
		if raw, _ := e.Get("n"); string(raw) != bad {
			t.Fatalf("refused INCR changed %q to %q", bad, raw)
		}
	}
	for _, c := range []struct{ start, delta int64 }{
		{math.MaxInt64, 1},
		{math.MinInt64, -1},
		{math.MinInt64 + 1, -2},
		{-1, math.MinInt64},
		{1, math.MaxInt64},
	} {
		start := strconv.FormatInt(c.start, 10)
		e.Set("n", []byte(start))
		if v, err := e.IncrBy("n", c.delta); err != ErrOverflow {
			t.Fatalf("%s + %d: %d, %v; want ErrOverflow", start, c.delta, v, err)
		}
		if raw, _ := e.Get("n"); string(raw) != start {
			t.Fatalf("refused %s + %d stored %q", start, c.delta, raw)
		}
	}
	for _, c := range []struct{ start, delta, want int64 }{
		{math.MaxInt64 - 1, 1, math.MaxInt64},
		{math.MinInt64 + 1, -1, math.MinInt64},
		{-1, math.MinInt64 + 1, math.MinInt64},
	} {
		e.Set("n", []byte(strconv.FormatInt(c.start, 10)))
		if v, err := e.IncrBy("n", c.delta); err != nil || v != c.want {
			t.Fatalf("%d + %d: %d, %v; want %d", c.start, c.delta, v, err, c.want)
		}
		if raw, _ := e.Get("n"); string(raw) != strconv.FormatInt(c.want, 10) {
			t.Fatalf("%d + %d stored %q", c.start, c.delta, raw)
		}
	}
}
