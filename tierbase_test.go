package tierbase

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"tierbase/internal/workload"
)

func TestOpenCacheOnly(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("%q %v", v, err)
	}
	if _, err := s.Get("nope"); err != ErrNotFound {
		t.Fatalf("missing: %v", err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err != ErrNotFound {
		t.Fatal("delete failed")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{Policy: WriteThrough}); err == nil {
		t.Fatal("tiered policy without Dir accepted")
	}
	if _, err := Open(Options{Policy: Policy(99)}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := Open(Options{Compression: "nope"}); err == nil {
		t.Fatal("bogus compressor accepted")
	}
}

func TestWriteThroughDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Policy: WriteThrough, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Set(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: data must come back from the storage tier.
	s2, err := Open(Options{Policy: WriteThrough, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := s2.Get("k25")
	if err != nil || string(v) != "v" {
		t.Fatalf("recovered: %q %v", v, err)
	}
	if s2.Stats().MissRatio == 0 {
		t.Fatal("reopen reads should be cache misses served by storage")
	}
}

func TestWriteBackFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Policy: WriteBack, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("wb%03d", i), []byte("v"))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Policy: WriteBack, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, err := s2.Get("wb050"); err != nil || string(v) != "v" {
		t.Fatalf("dirty data lost on close: %q %v", v, err)
	}
}

func TestCompressionOption(t *testing.T) {
	ds := workload.NewKV1()
	s, err := Open(Options{
		Compression:     "pbc",
		TrainingSamples: workload.Sample(ds, 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := ds.Record(9999)
	s.Set("u", val)
	got, err := s.Get("u")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("roundtrip: %v", err)
	}
	for i := int64(0); i < 100; i++ {
		s.Set(fmt.Sprintf("u%d", i), ds.Record(i))
	}
	if r := s.Stats().CompressionRatio; r >= 1 || r <= 0 {
		t.Fatalf("compression ratio %f", r)
	}
}

func TestPMemOption(t *testing.T) {
	s, err := Open(Options{PMemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := bytes.Repeat([]byte("p"), 500)
	s.Set("big", big)
	if s.Stats().PMemBytes == 0 {
		t.Fatal("value not offloaded to PMem")
	}
	v, err := s.Get("big")
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("pmem roundtrip: %v", err)
	}
}

func TestUpdateAndCAS(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Set("k", []byte("a"))
	err = s.Update("k", func(old []byte, exists bool) []byte {
		return append(old, 'b')
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("k")
	if string(v) != "ab" {
		t.Fatalf("update: %q", v)
	}
	if err := s.CompareAndSet("k", []byte("ab"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := s.CompareAndSet("k", []byte("stale"), []byte("d")); err != ErrCASMismatch {
		t.Fatalf("cas mismatch: %v", err)
	}
	n, err := s.IncrBy("ctr", 5)
	if err != nil || n != 5 {
		t.Fatalf("incr: %d %v", n, err)
	}
}

func TestTTLAndEngineAccess(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Set("k", []byte("v"))
	if !s.Expire("k", time.Hour) {
		t.Fatal("expire")
	}
	if _, err := s.Engine().LPush("list", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestElasticOption(t *testing.T) {
	s, err := Open(Options{ElasticThreading: true, MaxThreads: 4, Compression: "zstd-b", CompressionLevel: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Stats().Workers != 1 {
		t.Fatalf("elastic should start single: %d", s.Stats().Workers)
	}

	// Saturating callers: each keeps one call in flight, so the backlog is
	// the callers waiting for the one worker, and that must boost it.
	val := bytes.Repeat(workload.NewKV1().Record(1), 24)[:4096]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Set(fmt.Sprintf("c%d-%d", g, i%64), val)
			}
		}()
	}
	deadline := time.Now().Add(3 * time.Second)
	for s.Stats().Workers < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	workers := s.Stats().Workers
	close(stop)
	wg.Wait()
	if workers < 2 {
		t.Fatalf("16 saturating callers left the pool at %d worker", workers)
	}
}

func TestEvictionWithCapacity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Policy: WriteThrough, Dir: dir, CacheCapacityBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("e%03d", i), val)
	}
	if s.Stats().CacheMemBytes > 8<<10 {
		t.Fatalf("cache grew past capacity: %d", s.Stats().CacheMemBytes)
	}
	// Every key still readable via the storage tier.
	for i := 0; i < 100; i++ {
		if _, err := s.Get(fmt.Sprintf("e%03d", i)); err != nil {
			t.Fatalf("evicted key lost: %v", err)
		}
	}
}

func TestCostModelReexports(t *testing.T) {
	w := CostWorkload{QPS: 50000, DataSizeGB: 8}
	configs := []CostMeasured{
		{Config: "raw", MaxPerfQPS: 100000, MaxSpaceGB: 2},
		{Config: "pbc", MaxPerfQPS: 40000, MaxSpaceGB: 8},
	}
	best, err := OptimalConfig(w, StandardContainer, configs)
	if err != nil {
		t.Fatal(err)
	}
	if best.Measured.Config == "" {
		t.Fatal("no config chosen")
	}
	if c := TieredCost(TieredCostInputs{PCCache: 1, SCCache: 4}, 0.5, 0.1); c <= 0 {
		t.Fatalf("tiered cost %f", c)
	}
	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i%100)
	}
	mrc := BuildMRC(keys)
	cr, mr, _ := OptimalCacheRatio(TieredCostInputs{PCCache: 0.5, PCMiss: 2, SCCache: 10}, mrc)
	if cr < 0 || cr > 1 || mr < 0 || mr > 1 {
		t.Fatalf("cr=%f mr=%f", cr, mr)
	}
	if BreakEvenInterval(0.001, 2, 100) <= 0 {
		t.Fatal("break-even")
	}
}

func TestStatsShape(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Policy: WriteBack, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Set("k", []byte("v"))
	s.Get("k")
	s.Get("ghost")
	st := s.Stats()
	if st.Keys != 1 || st.Requests < 3 || st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.CacheMemBytes == 0 {
		t.Fatal("no cache memory reported")
	}
	s.FlushDirty()
	if s.Stats().DirtyEntries != 0 {
		t.Fatal("dirty after flush")
	}
}

// TestInPlaceOpsReachStorage: IncrBy, CompareAndSet and Expire go through
// the tiered store, so under a tiered policy their outcome survives a
// restart and they compose with a key the cache tier no longer holds.
func TestInPlaceOpsReachStorage(t *testing.T) {
	for name, policy := range map[string]Policy{"write-through": WriteThrough, "write-back": WriteBack} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Options{Policy: policy, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			s.Set("n", []byte("10"))
			if n, err := s.IncrBy("n", 5); err != nil || n != 15 {
				t.Fatalf("incr: %d %v", n, err)
			}
			s.Set("c", []byte("a"))
			if err := s.CompareAndSet("c", []byte("a"), []byte("b")); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s, err = Open(Options{Policy: policy, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if v, err := s.Get("n"); err != nil || string(v) != "15" {
				t.Fatalf("n after restart: %q %v", v, err)
			}
			if v, err := s.Get("c"); err != nil || string(v) != "b" {
				t.Fatalf("c after restart: %q %v", v, err)
			}

			// Drop the keys from the cache tier only, as eviction does.
			evict := func(keys ...string) {
				if err := s.FlushDirty(); err != nil {
					t.Fatal(err)
				}
				for _, k := range keys {
					s.Engine().Del(k)
				}
			}
			evict("n", "c")
			if n, err := s.IncrBy("n", 1); err != nil || n != 16 {
				t.Fatalf("incr of evicted key: %d %v", n, err)
			}
			if err := s.CompareAndSet("c", []byte("b"), []byte("d")); err != nil {
				t.Fatalf("cas of evicted key: %v", err)
			}
			evict("c")
			if !s.Expire("c", time.Hour) {
				t.Fatal("expire of evicted key reported it absent")
			}
			if v, err := s.Get("c"); err != nil || string(v) != "d" {
				t.Fatalf("c after expire: %q %v", v, err)
			}
		})
	}
}

// TestConcurrentUpdateLosesNoIncrement: Update is atomic per key — with
// several pool workers running it at once no read-modify-write is lost.
func TestConcurrentUpdateLosesNoIncrement(t *testing.T) {
	s, err := Open(Options{Policy: WriteBack, Dir: t.TempDir(), Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, each = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := s.Update("ctr", func(old []byte, _ bool) []byte {
					n, _ := strconv.Atoi(string(old))
					return []byte(strconv.Itoa(n + 1))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v, err := s.Get("ctr"); err != nil || string(v) != strconv.Itoa(workers*each) {
		t.Fatalf("ctr = %q %v, want %d", v, err, workers*each)
	}
}
