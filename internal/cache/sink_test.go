package cache

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"tierbase/internal/engine"
	"tierbase/internal/replication"
)

// recordingSink captures the replicated op stream (with value copies —
// the contract says values may alias reusable buffers).
type recordingSink struct {
	mu  sync.Mutex
	ops []sinkOp
	// onSet, when set, runs at the start of every reported write: a test's
	// chance to start another writer at exactly that point of a commit.
	onSet func(key string)
}

type sinkOp struct {
	key      string
	val      []byte
	del      bool
	encoded  bool
	expire   bool
	expireAt int64
	persist  bool
	flushAll bool
}

func (r *recordingSink) Replicate(op replication.Op) {
	rec := sinkOp{key: op.Key}
	switch op.Kind {
	case replication.OpSet, replication.OpSetEncoded:
		if r.onSet != nil {
			r.onSet(op.Key)
		}
		rec.val, rec.encoded = append([]byte(nil), op.Val...), op.Kind == replication.OpSetEncoded
	case replication.OpDel:
		rec.del = true
	case replication.OpExpire:
		rec.expire = true
		rec.expireAt, _ = strconv.ParseInt(string(op.Val), 10, 64)
	case replication.OpPersist:
		rec.persist = true
	case replication.OpFlushAll:
		rec.flushAll = true
	}
	r.mu.Lock()
	r.ops = append(r.ops, rec)
	r.mu.Unlock()
}

func (r *recordingSink) snapshot() []sinkOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sinkOp(nil), r.ops...)
}

func newSinkStore(t *testing.T, policy Policy) (*Tiered, *recordingSink) {
	t.Helper()
	opts := Options{Policy: policy, Engine: engine.New(engine.Options{})}
	if policy != CacheOnly {
		opts.Storage = NewMapStorage()
	}
	ts, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	ts.SetSink(sink)
	t.Cleanup(func() { ts.Close() })
	return ts, sink
}

func TestSinkSeesAllMutationKinds(t *testing.T) {
	for _, policy := range []Policy{CacheOnly, WriteThrough, WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			ts, sink := newSinkStore(t, policy)
			if err := ts.Set("a", []byte("1")); err != nil {
				t.Fatal(err)
			}
			eng := ts.opts.Engine
			mutate := func(key string, op func() error) {
				t.Helper()
				if err := ts.Mutate(key, func() (bool, error) { return true, op() }); err != nil {
					t.Fatal(err)
				}
			}
			mutate("b", func() error { return eng.Set("b", []byte("2")) })
			mutate("c", func() error { _, err := eng.RPush("c", []byte("x")); return err })
			if err := ts.Delete("a"); err != nil {
				t.Fatal(err)
			}
			mutate("b", func() error { eng.Del("b"); return nil })
			if err := ts.BatchPut(map[string][]byte{"d": []byte("4")}); err != nil {
				t.Fatal(err)
			}
			if _, err := ts.BatchDelete([]string{"d"}); err != nil {
				t.Fatal(err)
			}
			ops := sink.snapshot()
			want := []sinkOp{
				{key: "a", val: []byte("1")},
				{key: "b", val: []byte("2")},
				{key: "c", val: []byte{0xFF, byte(engine.KindList), 1, 1, 'x'}, encoded: true},
				{key: "a", del: true},
				{key: "b", del: true},
				{key: "d", val: []byte("4")},
				{key: "d", del: true},
			}
			if len(ops) != len(want) {
				t.Fatalf("got %d ops %+v, want %d", len(ops), ops, len(want))
			}
			for i, w := range want {
				g := ops[i]
				if g.key != w.key || g.del != w.del || g.encoded != w.encoded || string(g.val) != string(w.val) {
					t.Fatalf("op %d = %+v, want %+v", i, g, w)
				}
			}
		})
	}
}

func TestSinkIgnoresFillsAndEvictions(t *testing.T) {
	eng := engine.New(engine.Options{})
	st := NewMapStorage()
	st.Put("cold", []byte("v"))
	ts, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	sink := &recordingSink{}
	ts.SetSink(sink)
	if v, err := ts.Get("cold"); err != nil || string(v) != "v" {
		t.Fatalf("Get cold = %q, %v", v, err)
	}
	if ops := sink.snapshot(); len(ops) != 0 {
		t.Fatalf("cache fill replicated: %+v", ops)
	}
}

// checkLastSinkOp asserts the sink's last op for key says what the engine
// holds for it — a replica replaying the sink converges on the master.
func checkLastSinkOp(t *testing.T, eng *engine.Engine, sink *recordingSink, key string) {
	t.Helper()
	var last sinkOp
	found := false
	for _, op := range sink.snapshot() {
		if op.key == key {
			last, found = op, true
		}
	}
	if !found {
		t.Fatalf("no sink ops for %q", key)
	}
	final, err := eng.Get(key)
	if err != nil {
		if !last.del {
			t.Fatalf("engine has no %q (%v) but the last sink op is %+v", key, err, last)
		}
		return
	}
	if last.del || string(last.val) != string(final) {
		t.Fatalf("last sink op %+v diverges from engine value %q", last, final)
	}
}

// TestSinkOrderMatchesEngineOrder asserts the sink's final op for a key
// matches the engine's final state under every policy, for every pair of
// write shapes: plain SETs, RMW-style propagations (the INCR shape) and
// batches. First one exact interleaving — a Set(k) started while a batch
// holding k is between its engine apply and its last sink call, which
// diverged every time while batches reported to the sink after dropping
// their locks — then all three shapes hammering one key.
func TestSinkOrderMatchesEngineOrder(t *testing.T) {
	for _, policy := range []Policy{CacheOnly, WriteThrough, WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			ts, sink := newSinkStore(t, policy)
			eng := ts.opts.Engine

			// lo's stripe sorts before hi's, so a batch that walks its
			// stripes in index order reports lo first.
			lo, hi := "lo", "hi"
			for i := 0; eng.ShardIndex(lo) >= eng.ShardIndex(hi); i++ {
				lo, hi = "lo"+strconv.Itoa(i), "hi"+strconv.Itoa(i)
			}
			var setDone sync.WaitGroup
			var once sync.Once
			sink.onSet = func(k string) {
				if k != lo {
					return
				}
				once.Do(func() {
					// The batch is mid-report. Give a Set(hi) every chance
					// to run here; it must not get in before the batch's
					// own op for hi is in the sink.
					done := make(chan struct{})
					setDone.Add(1)
					go func() {
						defer setDone.Done()
						if err := ts.Set(hi, []byte("set")); err != nil {
							t.Error(err)
						}
						close(done)
					}()
					select {
					case <-done:
					case <-time.After(20 * time.Millisecond):
					}
				})
			}
			if err := ts.BatchPut(map[string][]byte{lo: []byte("b"), hi: []byte("batch")}); err != nil {
				t.Fatal(err)
			}
			setDone.Wait()
			sink.onSet = nil
			checkLastSinkOp(t, eng, sink, hi)

			const key = "contended"
			const rounds = 200
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // writer: plain SETs
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if err := ts.Set(key, []byte("set-"+strconv.Itoa(i))); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // RMW: an in-place engine op through Mutate
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					err := ts.Mutate(key, func() (bool, error) {
						return true, eng.Set(key, []byte("rmw-"+strconv.Itoa(i)))
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // batches: MSET and multi-key DEL shapes
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					var err error
					if i%4 == 3 {
						_, err = ts.BatchDelete([]string{key})
					} else {
						err = ts.BatchPut(map[string][]byte{
							key:     []byte("batch-" + strconv.Itoa(i)),
							"other": []byte("x"),
						})
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			checkLastSinkOp(t, eng, sink, key)
		})
	}
}

func TestSetStillWorksUnderStripeContention(t *testing.T) {
	// Many goroutines, many keys on few stripes: writers that share a
	// stripe lock serialize, they never deadlock.
	eng := engine.New(engine.Options{Shards: 2})
	ts, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: NewMapStorage()})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("k%d", i%10)
				if err := ts.Set(k, []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
