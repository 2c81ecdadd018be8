package tierbase

import (
	"bytes"
	"errors"
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
// several goroutines running it at once no read-modify-write is lost.
func TestConcurrentUpdateLosesNoIncrement(t *testing.T) {
	s, err := Open(Options{Policy: WriteBack, Dir: t.TempDir()})
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

// TestStoreCallsRunConcurrently: a Store call runs on its caller's
// goroutine, so a call on one key does not queue behind a call on another.
func TestStoreCallsRunConcurrently(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Set("b", []byte("v")); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	updated := make(chan error, 1)
	go func() {
		updated <- s.Update("a", func([]byte, bool) []byte {
			close(entered)
			<-release
			return []byte("x")
		})
	}()
	<-entered
	got := make(chan error, 1)
	go func() { _, err := s.Get("b"); got <- err }()
	select {
	case err := <-got:
		close(release)
		if err != nil {
			t.Fatalf("Get(b): %v", err)
		}
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("Get(b) still waiting after 2s behind a blocked Update(a)")
	}
	if err := <-updated; err != nil {
		t.Fatal(err)
	}
}

// TestStoreCloseWaitsForCalls: Close does not close the tiers under a call
// in flight, and that call's write is flushed; a call after Close fails.
func TestStoreCloseWaitsForCalls(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Policy: WriteBack, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	updated := make(chan error, 1)
	go func() {
		updated <- s.Update("a", func([]byte, bool) []byte {
			close(entered)
			<-release
			return []byte("x")
		})
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		close(release)
		t.Fatal("Close returned while an Update was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-updated; err != nil {
		t.Fatalf("in-flight Update: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Set("a", []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set after Close = %v, want ErrClosed", err)
	}

	s, err = Open(Options{Policy: WriteBack, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, err := s.Get("a"); err != nil || string(v) != "x" {
		t.Fatalf("a after reopen = %q %v, want the in-flight Update's x", v, err)
	}
}

// TestStoreMixedOpsUnderWriteBack: IncrBy, CompareAndSet, MSet, MGet,
// Expire, FlushDirty and BatchDelete run at once on overlapping keys, under
// write-back with a cache small enough to evict. No call fails, and no
// increment is lost. The 20 keys the workers share fit the 2 KB budget
// about as often as not, so the cache starts over it: clean keys worth
// several times the budget, which the workers' first writes evict.
func TestStoreMixedOpsUnderWriteBack(t *testing.T) {
	s, err := Open(Options{Policy: WriteBack, Dir: t.TempDir(), CacheCapacityBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, each, counters = 4, 300, 4
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 64; i++ {
		if err := s.Set(fmt.Sprintf("fill%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%d", i%16) }
	ctr := func(i int) string { return fmt.Sprintf("n%d", i%counters) }
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j := g*each + i
				if _, err := s.IncrBy(ctr(j), 1); err != nil {
					t.Errorf("IncrBy: %v", err)
					return
				}
				var err error
				switch i % 5 {
				case 0:
					err = s.CompareAndSet(key(j), nil, val)
					if errors.Is(err, ErrCASMismatch) {
						err = nil
					}
				case 1:
					err = s.MSet(map[string][]byte{key(j): val, key(j + 1): val, key(j + 7): val})
				case 2:
					_, err = s.MGet(key(j), key(j+3), ctr(j), ctr(j+1))
				case 3:
					s.Expire(key(j+2), time.Hour)
					s.Expire(ctr(j), time.Hour)
					// Clean keys are what the cache can evict.
					err = s.FlushDirty()
				case 4:
					_, err = s.BatchDelete(key(j), key(j+5))
				}
				if err != nil {
					t.Errorf("op %d: %v", i%5, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.tiered.Stats().Evictions == 0 {
		t.Fatal("the cache never evicted")
	}
	var total int
	for c := 0; c < counters; c++ {
		v, err := s.Get(ctr(c))
		if err != nil {
			t.Fatalf("%s: %v", ctr(c), err)
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			t.Fatalf("%s = %q", ctr(c), v)
		}
		total += n
	}
	if total != workers*each {
		t.Fatalf("counters sum to %d, want %d", total, workers*each)
	}
}
