package cache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/engine"
)

// Write-path tests: per-key write order under the RMW stripe locks
// (single-key writes, batches and FlushAll alike) and the write-back dirty
// set's one backpressure budget.

// otherStripeKey returns a key whose engine stripe differs from ref's.
func otherStripeKey(t *testing.T, eng *engine.Engine, ref string) string {
	t.Helper()
	want := eng.ShardIndex(ref)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("probe:%d", i)
		if eng.ShardIndex(k) != want {
			return k
		}
	}
	t.Fatal("no key on another stripe found")
	return ""
}

// sameStripeKeys returns n distinct keys on ref's engine stripe.
func sameStripeKeys(t *testing.T, eng *engine.Engine, ref string, n int) []string {
	t.Helper()
	want := eng.ShardIndex(ref)
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		k := fmt.Sprintf("same:%d", i)
		if eng.ShardIndex(k) == want {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d keys on stripe %d", len(out), n, want)
	}
	return out
}

// TestWTBatchAckedAfterInflightSetIsFinal: a BatchPut containing a key
// with a Set still in flight to storage must order behind that Set — its
// value lands in storage AFTER the Set's, so the batch's ack is never
// stale. A batch that wrote storage without waiting could be overwritten
// by the slower Set with the older value.
func TestWTBatchAckedAfterInflightSetIsFinal(t *testing.T) {
	stor := NewMapStorage()
	slow := NewRemote(stor, 3*time.Millisecond)
	tr, err := New(Options{Policy: WriteThrough, Engine: engine.New(engine.Options{}), Storage: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.Set("hot", []byte("leader")) // in flight for ~3 ms
	}()
	time.Sleep(time.Millisecond) // let the Set take hot's stripe lock
	if err := tr.BatchPut(map[string][]byte{
		"hot":   []byte("batch"),
		"other": []byte("x"),
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The batch acked after the Set did, so its value must be final.
	v, _, _ := stor.Get("hot")
	if string(v) != "batch" {
		t.Fatalf("storage holds %q; batch ack was stale", v)
	}
	cv, _ := tr.Engine().Get("hot")
	if !bytes.Equal(cv, v) {
		t.Fatalf("cache %q diverged from storage %q", cv, v)
	}
}

// TestWTBatchLedKeysOneRoundTrip: a batch commits in exactly one storage
// round trip per call, alone or racing other batches over the same keys.
func TestWTBatchLedKeysOneRoundTrip(t *testing.T) {
	stor := NewMapStorage()
	remote := NewRemote(stor, 0)
	tr, err := New(Options{Policy: WriteThrough, Engine: engine.New(engine.Options{}), Storage: remote})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	entries := make(map[string][]byte, 32)
	for i := 0; i < 32; i++ {
		entries[fmt.Sprintf("k%02d", i)] = []byte("v")
	}
	if err := tr.BatchPut(entries); err != nil {
		t.Fatal(err)
	}
	st := remote.Stats()
	if st.BatchPuts != 1 || st.Puts != 0 {
		t.Fatalf("32 fresh keys: %d BatchPuts, %d Puts; want 1, 0", st.BatchPuts, st.Puts)
	}
	// Multi-key BatchDelete of uncontended keys: one BatchDelete round
	// trip (plus nothing per key).
	keys := make([]string, 0, 32)
	for k := range entries {
		keys = append(keys, k)
	}
	if _, err := tr.BatchDelete(keys); err != nil {
		t.Fatal(err)
	}
	st = remote.Stats()
	if st.BatchDels != 1 || st.Deletes != 0 {
		t.Fatalf("batch delete: %d BatchDels, %d Deletes; want 1, 0", st.BatchDels, st.Deletes)
	}
	// Four concurrent batches over the same 32 keys: still one round trip
	// each, and never a per-key Put on the side.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tr.BatchPut(entries); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st = remote.Stats()
	if st.BatchPuts != 1+4 || st.Puts != 0 {
		t.Fatalf("4 concurrent batches: %d BatchPuts, %d Puts; want 4 more (5), 0", st.BatchPuts, st.Puts)
	}
}

// TestBatchVsFlushAllTiersAgree: a BatchPut racing FLUSHALL lands before
// it or after it, never half in one tier: once both return, every key is
// in the cache and in storage with the same bytes, or in neither. A batch
// whose storage write and cache apply straddled the clear left acked keys
// the tiers disagreed about.
func TestBatchVsFlushAllTiersAgree(t *testing.T) {
	for _, policy := range []Policy{WriteThrough, WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			stor := NewMapStorage()
			tr, err := New(Options{
				Policy: policy, Engine: engine.New(engine.Options{}),
				Storage: NewRemote(stor, 50*time.Microsecond),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			for r := 0; r < 300; r++ {
				entries := make(map[string][]byte, 32)
				for i := 0; i < 32; i++ {
					entries[fmt.Sprintf("k%02d", i)] = []byte(fmt.Sprintf("r%03d", r))
				}
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					if err := tr.BatchPut(entries); err != nil {
						t.Errorf("batch: %v", err)
					}
				}()
				go func() {
					defer wg.Done()
					if err := tr.FlushAll(); err != nil {
						t.Errorf("flushall: %v", err)
					}
				}()
				wg.Wait()
				if err := tr.FlushDirty(); err != nil { // write-back: settle
					t.Fatal(err)
				}
				for k := range entries {
					sv, sok, _ := stor.Get(k)
					cv, cerr := tr.Engine().Get(k)
					if cok := cerr == nil; sok != cok {
						t.Fatalf("round %d, %s: in storage %v, in cache %v", r, k, sok, cok)
					}
					if sok && !bytes.Equal(sv, cv) {
						t.Fatalf("round %d, %s: storage %q != cache %q", r, k, sv, cv)
					}
				}
			}
		})
	}
}

// TestWTSetVsBatchPutOrderingStress interleaves Set(k)/Del(k) with
// BatchPut{k}/BatchDelete{k} under -race. After every round quiesces, the
// cache tier and the storage tier must agree on k — the old bypass let
// them diverge permanently (storage holding one acked write, cache the
// other), which is exactly the "older acked value" bug.
func TestWTSetVsBatchPutOrderingStress(t *testing.T) {
	stor := NewMapStorage()
	slow := NewRemote(stor, 200*time.Microsecond) // widen the race window
	tr, err := New(Options{Policy: WriteThrough, Engine: engine.New(engine.Options{}), Storage: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		setVal := []byte(fmt.Sprintf("set-%03d", r))
		batchVal := []byte(fmt.Sprintf("batch-%03d", r))
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := tr.Set("contended", setVal); err != nil {
				t.Errorf("set: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			err := tr.BatchPut(map[string][]byte{
				"contended": batchVal,
				"bystander": []byte("b"),
			})
			if err != nil {
				t.Errorf("batch: %v", err)
			}
		}()
		if r%3 == 2 {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if err := tr.Delete("contended"); err != nil {
					t.Errorf("del: %v", err)
				}
			}()
			go func() {
				defer wg.Done()
				if _, err := tr.BatchDelete([]string{"contended"}); err != nil {
					t.Errorf("batchdel: %v", err)
				}
			}()
		}
		wg.Wait()
		// Quiesced: every op acked, no writer in flight. The tiers must
		// agree — a mismatch means some acked write reached one tier but
		// was overwritten by an OLDER acked write in the other.
		sv, sok, _ := stor.Get("contended")
		cv, cerr := tr.Engine().Get("contended")
		cok := cerr == nil
		if sok != cok {
			t.Fatalf("round %d: presence diverged: storage ok=%v cache ok=%v", r, sok, cok)
		}
		if sok && !bytes.Equal(sv, cv) {
			t.Fatalf("round %d: storage %q != cache %q", r, sv, cv)
		}
		if sok && string(sv) != string(setVal) && string(sv) != string(batchVal) {
			t.Fatalf("round %d: storage holds %q, not a value acked this round", r, sv)
		}
	}
}

// TestWTBatchMixedStress hammers one small keyspace with every write-path
// entry point at once (Set, Delete, BatchPut, BatchDelete, BatchGet) and
// then checks full cache/storage convergence — the -race workout for
// single-key and multi-stripe lock holders sharing the stripe locks.
func TestWTBatchMixedStress(t *testing.T) {
	stor := NewMapStorage()
	tr, err := New(Options{Policy: WriteThrough, Engine: engine.New(engine.Options{}), Storage: stor})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const keyspace = 16
	key := func(i int) string { return fmt.Sprintf("k%02d", i%keyspace) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				switch (g + i) % 5 {
				case 0:
					tr.Set(key(i), []byte(fmt.Sprintf("s%d-%d", g, i)))
				case 1:
					tr.Delete(key(i))
				case 2:
					tr.BatchPut(map[string][]byte{
						key(i):     []byte(fmt.Sprintf("b%d-%d", g, i)),
						key(i + 1): []byte("x"),
						key(i + 7): nil, // batch-embedded delete
					})
				case 3:
					tr.BatchDelete([]string{key(i), key(i + 3)})
				case 4:
					tr.BatchGet([]string{key(i), key(i + 1), key(i + 2)})
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiesced: tiers must agree on every key.
	for i := 0; i < keyspace; i++ {
		k := key(i)
		sv, sok, _ := stor.Get(k)
		cv, cerr := tr.Engine().Get(k)
		cok := cerr == nil
		if sok != cok {
			t.Fatalf("%s: presence diverged: storage=%v cache=%v", k, sok, cok)
		}
		if sok && !bytes.Equal(sv, cv) {
			t.Fatalf("%s: storage %q != cache %q", k, sv, cv)
		}
	}
}

// TestWBOneBudgetBackpressure: the dirty set has one budget for the whole
// store.
// Keys of a single engine stripe may fill all of it without anyone waiting,
// the write after that waits whichever stripe it is for, and a flush lets it
// in.
func TestWBOneBudgetBackpressure(t *testing.T) {
	stor := NewMapStorage()
	stor.FailPuts.Store(true) // flushes fail: dirty entries cannot drain
	eng := engine.New(engine.Options{Shards: 4})
	tr, err := New(Options{
		Policy: WriteBack, Engine: eng, Storage: stor,
		FlushBatch:    1, // a dirty budget of 8
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stor.FailPuts.Store(false) // let Close's final flush succeed
		tr.Close()
	}()

	hot := sameStripeKeys(t, eng, "ref", 8)
	for _, k := range hot {
		if err := tr.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats(); st.Dirty != 8 || st.BackpressureWaits != 0 {
		t.Fatalf("eight keys of one stripe under a budget of 8: %d dirty, %d waits; want 8, 0", st.Dirty, st.BackpressureWaits)
	}

	// The ninth key waits, though its own stripe holds nothing dirty.
	blocked := make(chan error, 1)
	go func() { blocked <- tr.Set(otherStripeKey(t, eng, hot[0]), []byte("v")) }()
	select {
	case err := <-blocked:
		t.Fatalf("write to a full dirty set did not block (err=%v)", err)
	case <-time.After(30 * time.Millisecond):
	}
	if w := tr.Stats().BackpressureWaits; w != 1 {
		t.Fatalf("one blocked writer counted as %d waits", w)
	}

	// Once storage recovers and a flush round lands, the writer completes.
	stor.FailPuts.Store(false)
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("blocked writer failed after flush: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked writer never released after the dirty set drained")
	}
	if w := tr.Stats().BackpressureWaits; w != 1 {
		t.Fatalf("waits %d after release; a wait is counted once, not per wakeup", w)
	}
}

// TestWBBatchPutBackpressure: a write-back batch waits for room like a
// single write and is then admitted whole, so the dirty set stays within
// its budget plus one batch.
func TestWBBatchPutBackpressure(t *testing.T) {
	stor := NewMapStorage()
	tr := newWB(t, stor, func(o *Options) {
		o.FlushBatch = 1 // a dirty budget of 8
		o.FlushInterval = time.Millisecond
	})
	for i := 0; i < 200; i += 10 {
		entries := make(map[string][]byte, 10)
		for j := i; j < i+10; j++ {
			entries[fmt.Sprintf("k%03d", j)] = []byte("v")
		}
		if err := tr.BatchPut(entries); err != nil {
			t.Fatal(err)
		}
		if d := tr.Stats().Dirty; d > 8+10 {
			t.Fatalf("dirty set at %d after a batch; want at most the budget of 8 + one batch of 10", d)
		}
	}
}

// TestWBBatchPutRacingCloseLandsNothing: a batch that is waiting for room
// when the store closes fails with ErrClosed as a whole: none of its keys is
// in the dirty set, the cache tier or (after the backlog drains) storage.
func TestWBBatchPutRacingCloseLandsNothing(t *testing.T) {
	stor := NewMapStorage()
	stor.FailPuts.Store(true) // the backlog cannot drain: the batch must wait
	tr, err := New(Options{
		Policy: WriteBack, Engine: engine.New(engine.Options{}), Storage: stor,
		FlushBatch: 1, FlushInterval: time.Millisecond, // a dirty budget of 8
		DegradedProbeInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tr.Set(fmt.Sprintf("fill%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	batch := map[string][]byte{}
	for i := 0; i < 20; i++ { // enough keys to touch most stripes
		batch[fmt.Sprintf("late%02d", i)] = []byte("v")
	}
	result := make(chan error, 1)
	go func() { result <- tr.BatchPut(batch) }()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().BackpressureWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never waited for room")
		}
		time.Sleep(time.Millisecond)
	}
	_ = tr.Close() // its final flush fails with the storage; not what is tested
	select {
	case err := <-result:
		if err != ErrClosed {
			t.Fatalf("BatchPut racing Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the backpressured batch waiting")
	}
	// Drain what was admitted before the close, then look for the batch.
	stor.FailPuts.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for tr.flushDirty(0) != nil {
		if time.Now().After(deadline) {
			t.Fatal("backlog never drained after storage recovered")
		}
		time.Sleep(time.Millisecond)
	}
	if stor.Len() != 8 {
		t.Fatalf("storage holds %d keys, want the 8 admitted before the close", stor.Len())
	}
	for k := range batch {
		if _, ok := tr.dirty.lookup(k); ok {
			t.Fatalf("%s is dirty though its batch failed", k)
		}
		if tr.Engine().Exists(k) {
			t.Fatalf("%s is in the cache tier though its batch failed", k)
		}
		if _, ok, _ := stor.Get(k); ok {
			t.Fatalf("%s reached storage though its batch failed", k)
		}
	}
}

// TestWTHeldStripeNeverBlocksAnother: SET holds its RMW stripe lock
// through the storage commit (strict per-key ordering for replication),
// so hot writers on one stripe serialize among themselves — but they
// never block writers on another stripe, and cache/storage stay
// consistent per key.
func TestWTHeldStripeNeverBlocksAnother(t *testing.T) {
	stor := NewMapStorage()
	slow := NewRemote(stor, 2*time.Millisecond)
	eng := engine.New(engine.Options{})
	tr, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	hotA := "hot-a"
	hotB := otherStripeKey(t, eng, hotA)

	// Hold stripe A's RMW lock hostage; stripe B writes must not care.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = tr.Mutate(hotA, func() (bool, error) {
			close(held)
			<-release
			return false, nil
		})
	}()
	<-held
	done := make(chan error, 1)
	go func() { done <- tr.Set(hotB, []byte("b-while-a-locked")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stripe-B set: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stripe-B set blocked behind stripe-A RMW lock")
	}
	close(release)

	var wg sync.WaitGroup
	const writers = 16
	for i := 0; i < writers; i++ {
		for _, k := range []string{hotA, hotB} {
			wg.Add(1)
			go func(k string, i int) {
				defer wg.Done()
				if err := tr.Set(k, []byte(fmt.Sprintf("v%02d", i))); err != nil {
					t.Errorf("set: %v", err)
				}
			}(k, i)
		}
	}
	wg.Wait()
	for _, k := range []string{hotA, hotB} {
		cv, _ := tr.Get(k)
		sv, _, _ := stor.Get(k)
		if !bytes.Equal(cv, sv) {
			t.Fatalf("%s: cache %q != storage %q", k, cv, sv)
		}
	}
}

// TestDirtyBytesTracksHeap holds DirtyBytes(), which the overload
// watermark reads, to the heap the write-back dirty set really occupies,
// for small values and for repl-write sized ones.
func TestDirtyBytesTracksHeap(t *testing.T) {
	const n = 50_000
	for _, valLen := range []int{16, 128} {
		tr, err := New(Options{
			Policy: WriteBack, Engine: engine.New(engine.Options{}), Storage: NewMapStorage(),
			FlushInterval: time.Hour, FlushBatch: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, valLen)
		before := heapAfterGC()
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("user:%09d", i)
			if _, err := tr.dirty.mark([]write{{key: key, val: val}}); err != nil {
				t.Fatal(err)
			}
		}
		heap := heapAfterGC() - before
		ratio := float64(tr.DirtyBytes()) / float64(heap)
		t.Logf("val %d B: heap %.1f B/entry, accounted %.1f B/entry, ratio %.2f", valLen,
			float64(heap)/n, float64(tr.DirtyBytes())/n, ratio)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("val %d B: DirtyBytes() %d vs heap %d: ratio %.2f outside [0.75, 1.25]", valLen, tr.DirtyBytes(), heap, ratio)
		}
		tr.Close()
	}
}

// TestWritePathWork pins the storage round trips each write shape makes,
// under every policy, over a Remote that counts them: write-through pays one
// storage write per command (plus the reads it needs to answer), write-back
// none until a flush, cache-only none at all. Deferred flushes are held off
// (hour-long interval, batch and budget larger than the test), and the
// engine's clock is the test's, so the only background work is the sweep of
// the one key whose TTL is made to lapse.
func TestWritePathWork(t *testing.T) {
	type step struct {
		name string
		run  func(t *testing.T, tr *Tiered)
		rpcs map[Policy]int64
	}
	each := func(co, wt, wb int64) map[Policy]int64 {
		return map[Policy]int64{CacheOnly: co, WriteThrough: wt, WriteBack: wb}
	}
	batch := make(map[string][]byte, 16)
	for i := 0; i < 16; i++ {
		batch[fmt.Sprintf("b%02d", i)] = []byte("v")
	}
	del := func(keys ...string) func(t *testing.T, tr *Tiered) {
		return func(t *testing.T, tr *Tiered) {
			if _, err := tr.BatchDelete(keys); err != nil {
				t.Fatal(err)
			}
		}
	}
	var nowNs atomic.Int64
	steps := []step{
		{"Set", func(t *testing.T, tr *Tiered) {
			if err := tr.Set("s", []byte("v")); err != nil {
				t.Fatal(err)
			}
		}, each(0, 1, 0)},
		{"BatchPut of 16 keys", func(t *testing.T, tr *Tiered) {
			if err := tr.BatchPut(batch); err != nil {
				t.Fatal(err)
			}
		}, each(0, 1, 0)},
		{"BatchDelete of one resident key", del("b00"), each(0, 1, 0)},
		{"BatchDelete of three resident keys", del("b01", "b02", "b03"), each(0, 1, 0)},
		{"BatchDelete of three storage-only keys", del("cold0", "cold1", "cold2"), each(0, 2, 1)},
		{"INCR on a cold key", func(t *testing.T, tr *Tiered) {
			err := tr.Mutate("ctr", func() (bool, error) {
				_, err := tr.Engine().IncrBy("ctr", 1)
				return err == nil, err
			})
			if err != nil {
				t.Fatal(err)
			}
		}, each(0, 2, 1)},
		{"INCR on a key no tier has", func(t *testing.T, tr *Tiered) {
			err := tr.Mutate("fresh", func() (bool, error) {
				n, err := tr.Engine().IncrBy("fresh", 1)
				if err == nil && n != 1 {
					err = fmt.Errorf("INCR of an absent key = %d", n)
				}
				return err == nil, err
			})
			if err != nil {
				t.Fatal(err)
			}
		}, each(0, 2, 1)}, // one Get (and write-through's Put): the fill reads storage once
		{"lapsed TTL reaped by the sweep", func(t *testing.T, tr *Tiered) {
			nowNs.Add(int64(time.Hour))
			deadline := time.Now().Add(5 * time.Second)
			for tr.Engine().Expired("ttl") {
				if time.Now().After(deadline) {
					t.Fatal("the sweep never took the lapsed key")
				}
				time.Sleep(time.Millisecond)
			}
			tr.lockKey("ttl").Unlock() // the sweep commits under this lock
		}, each(0, 1, 0)},
		{"FlushAll", func(t *testing.T, tr *Tiered) {
			if err := tr.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}, each(0, 1, 1)},
	}
	for _, policy := range []Policy{CacheOnly, WriteThrough, WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			nowNs.Store(time.Unix(100, 0).UnixNano())
			inner := NewMapStorage()
			for _, k := range []string{"cold0", "cold1", "cold2"} {
				inner.Put(k, []byte("v"))
			}
			inner.Put("ctr", []byte("41"))
			remote := NewRemote(inner, 0)
			opts := Options{
				Policy:        policy,
				Engine:        engine.New(engine.Options{Clock: func() time.Time { return time.Unix(0, nowNs.Load()) }}),
				FlushInterval: time.Hour, FlushBatch: 1 << 20,
			}
			if policy != CacheOnly {
				opts.Storage = remote
			}
			tr, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if err := tr.Set("ttl", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if !tr.ExpireAt("ttl", time.Unix(101, 0).UnixNano()) {
				t.Fatal("ExpireAt: no such key")
			}
			for _, s := range steps {
				before := remote.TotalRPCs()
				s.run(t, tr)
				if got, want := remote.TotalRPCs()-before, s.rpcs[policy]; got != want {
					t.Errorf("%s: %d storage round trips, want %d", s.name, got, want)
				}
			}
		})
	}
}
