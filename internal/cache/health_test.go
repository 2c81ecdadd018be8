package cache

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/engine"
)

// flakyStorage wraps MapStorage with togglable read/write failures —
// the in-package stand-in for the faults package (which imports cache
// and so can't be used here).
type flakyStorage struct {
	*MapStorage
	failReads  atomic.Bool
	failWrites atomic.Bool
	errInject  error
}

var errFlaky = errors.New("flaky: injected")

func newFlakyStorage() *flakyStorage {
	return &flakyStorage{MapStorage: NewMapStorage(), errInject: errFlaky}
}

func (f *flakyStorage) Get(key string) ([]byte, bool, error) {
	if f.failReads.Load() {
		return nil, false, f.errInject
	}
	return f.MapStorage.Get(key)
}

func (f *flakyStorage) BatchGet(keys []string) (map[string][]byte, error) {
	if f.failReads.Load() {
		return nil, f.errInject
	}
	return f.MapStorage.BatchGet(keys)
}

func (f *flakyStorage) Put(key string, val []byte) error {
	if f.failWrites.Load() {
		return f.errInject
	}
	return f.MapStorage.Put(key, val)
}

func (f *flakyStorage) BatchPut(entries map[string][]byte) error {
	if f.failWrites.Load() {
		return f.errInject
	}
	return f.MapStorage.BatchPut(entries)
}

// TestDegradedModeCountsCalls: each storage call makes one attempt, and
// degradeAfter counts failed calls: fewer leave the store healthy, that
// many in a row degrade it, and one success heals it.
func TestDegradedModeCountsCalls(t *testing.T) {
	var calls atomic.Int64
	ts, err := New(Options{
		Policy:                WriteThrough,
		Engine:                engine.New(engine.Options{}),
		Storage:               &countingStorage{inner: NewMapStorage(), calls: &calls, failFirst: degradeAfter},
		DegradedProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for i := int64(1); i <= degradeAfter; i++ {
		if _, err := ts.Get(fmt.Sprintf("cold%d", i)); !errors.Is(err, errFlaky) {
			t.Fatalf("failed call %d = %v, want the injected failure", i, err)
		}
		h := ts.Health()
		if calls.Load() != i || h.StorageErrors != i || h.ConsecutiveFails != i || h.Degraded != (i == degradeAfter) {
			t.Fatalf("after %d failed calls: %d storage calls, %+v; degraded only after %d", i, calls.Load(), h, degradeAfter)
		}
	}
	// A write is never gated, so it makes its call; its success heals.
	if err := ts.Set("w", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if h := ts.Health(); h.Degraded || h.ConsecutiveFails != 0 || h.DegradedTransit != 1 {
		t.Fatalf("after a successful call: %+v", h)
	}
}

// degrade trips ts, whose storage fails every read with errFlaky, into
// degraded mode with degradeAfter failed reads, then spends the first
// probe with one more, so reads find no probe due until
// DegradedProbeInterval passes.
func degrade(t *testing.T, ts *Tiered) {
	t.Helper()
	for i := 0; i <= degradeAfter; i++ {
		if i == degradeAfter && !ts.Health().Degraded {
			t.Fatalf("not degraded after %d failed reads: %+v", degradeAfter, ts.Health())
		}
		if _, err := ts.Get(fmt.Sprintf("trip%d", i)); !errors.Is(err, errFlaky) {
			t.Fatalf("failed read %d = %v, want the injected failure", i, err)
		}
	}
}

// countingStorage fails the first failFirst calls, then delegates.
type countingStorage struct {
	inner     Storage
	calls     *atomic.Int64
	failFirst int64
}

func (c *countingStorage) gate() error {
	if c.calls.Add(1) <= c.failFirst {
		return errFlaky
	}
	return nil
}

func (c *countingStorage) Get(key string) ([]byte, bool, error) {
	if err := c.gate(); err != nil {
		return nil, false, err
	}
	return c.inner.Get(key)
}
func (c *countingStorage) Put(key string, val []byte) error {
	if err := c.gate(); err != nil {
		return err
	}
	return c.inner.Put(key, val)
}
func (c *countingStorage) Delete(key string) error {
	if err := c.gate(); err != nil {
		return err
	}
	return c.inner.Delete(key)
}
func (c *countingStorage) BatchGet(keys []string) (map[string][]byte, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	return c.inner.BatchGet(keys)
}
func (c *countingStorage) BatchPut(entries map[string][]byte) error {
	if err := c.gate(); err != nil {
		return err
	}
	return c.inner.BatchPut(entries)
}
func (c *countingStorage) BatchDelete(keys []string) error {
	if err := c.gate(); err != nil {
		return err
	}
	return c.inner.BatchDelete(keys)
}
func (c *countingStorage) FlushAll() error {
	if err := c.gate(); err != nil {
		return err
	}
	return FlushStorage(c.inner)
}

// TestStoragePolicyCoversEveryRoute runs each route that calls the storage
// tier against a store whose first storage call fails, and against a
// degraded one. The failed call is the route's only one, its error is the
// caller's and storage is unchanged; run again, the route does what it
// would have. A route that called Storage around Tiered.store would make a
// call the degraded store must not, or leave the health state unchanged.
func TestStoragePolicyCoversEveryRoute(t *testing.T) {
	// Each route runs over "a" and "b", which storage holds and the cache
	// tier does not, and renders what it answered.
	routes := []struct {
		name   string
		policy Policy
		read   bool
		run    func(ts *Tiered) (string, error)
		want   string // the answer once storage answers
		stored string // storage afterwards
		// degraded is the answer of a read route when the store is degraded.
		degraded    string
		degradedErr error
	}{
		{name: "Get miss", policy: WriteThrough, read: true,
			run: func(ts *Tiered) (string, error) {
				v, err := ts.Get("a")
				return string(v), err
			},
			want: "1", stored: "a=1 b=2", degradedErr: ErrNotFound},
		{name: "BatchGet miss", policy: WriteThrough, read: true,
			run: func(ts *Tiered) (string, error) {
				m, err := ts.BatchGet([]string{"a", "b"})
				return fmt.Sprintf("%q %q", m["a"], m["b"]), err
			},
			want: `"1" "2"`, stored: "a=1 b=2", degraded: `"" ""`},
		{name: "BatchDelete storage-only", policy: WriteThrough, read: true,
			run: func(ts *Tiered) (string, error) {
				n, err := ts.BatchDelete([]string{"a", "b"})
				return fmt.Sprint(n), err
			},
			want: "2", stored: "", degraded: "0", degradedErr: ErrDegraded},
		{name: "write-through Set", policy: WriteThrough,
			run:    func(ts *Tiered) (string, error) { return "", ts.Set("c", []byte("3")) },
			stored: "a=1 b=2 c=3"},
		{name: "write-through BatchPut", policy: WriteThrough,
			run: func(ts *Tiered) (string, error) {
				return "", ts.BatchPut(map[string][]byte{"c": []byte("3"), "d": []byte("4")})
			},
			stored: "a=1 b=2 c=3 d=4"},
		{name: "write-back FlushDirty", policy: WriteBack,
			run: func(ts *Tiered) (string, error) {
				if err := ts.Set("c", []byte("3")); err != nil {
					return "", err
				}
				return "", ts.FlushDirty()
			},
			stored: "a=1 b=2 c=3"},
		{name: "FlushAll", policy: WriteThrough,
			run:    func(ts *Tiered) (string, error) { return "", ts.FlushAll() },
			stored: ""},
	}
	setup := func(t *testing.T, policy Policy, failFirst int64) (*Tiered, *MapStorage, *atomic.Int64) {
		st := NewMapStorage()
		st.Put("a", []byte("1"))
		st.Put("b", []byte("2"))
		calls := &atomic.Int64{}
		ts, err := New(Options{
			Policy:                policy,
			Engine:                engine.New(engine.Options{}),
			Storage:               &countingStorage{inner: st, calls: calls, failFirst: failFirst},
			FlushInterval:         time.Hour, // FlushDirty is the only flush
			DegradedProbeInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ts.Close() })
		return ts, st, calls
	}
	for _, r := range routes {
		t.Run(r.name+"/one failure", func(t *testing.T) {
			ts, st, calls := setup(t, r.policy, 1)
			if _, err := r.run(ts); calls.Load() != 1 || !errors.Is(err, errFlaky) {
				t.Fatalf("one injected failure: %d storage calls, %v; want one, the injected failure", calls.Load(), err)
			}
			if h := ts.Health(); h.StorageErrors != 1 || h.ConsecutiveFails != 1 || h.Degraded {
				t.Fatalf("one injected failure: %+v", h)
			}
			held := func() string {
				var kv []string
				for _, k := range []string{"a", "b", "c", "d"} {
					if v, ok, _ := st.Get(k); ok {
						kv = append(kv, k+"="+string(v))
					}
				}
				return strings.Join(kv, " ")
			}
			if s := held(); s != "a=1 b=2" {
				t.Fatalf("storage holds %q after a failed call, want it unchanged", s)
			}
			var got string
			var err error
			if r.policy == WriteBack {
				// A failed flush leaves its key dirty: the next flush lands
				// it with no new write.
				err = ts.FlushDirty()
			} else {
				got, err = r.run(ts)
			}
			if err != nil || got != r.want {
				t.Fatalf("answer once storage answers = %q, %v; want %q", got, err, r.want)
			}
			if s := held(); s != r.stored {
				t.Fatalf("storage holds %q, want %q", s, r.stored)
			}
		})
		t.Run(r.name+"/degraded", func(t *testing.T) {
			ts, _, calls := setup(t, r.policy, 1<<40)
			degrade(t, ts)
			before := calls.Load()
			got, err := r.run(ts)
			made := calls.Load() - before
			if r.read {
				if made != 0 || got != r.degraded || err != r.degradedErr {
					t.Fatalf("degraded read: %d storage calls, answer %q, %v; want none, %q, %v",
						made, got, err, r.degraded, r.degradedErr)
				}
				return
			}
			if made != 1 || !errors.Is(err, errFlaky) {
				t.Fatalf("degraded write: %d attempts, %v; want one, the injected failure", made, err)
			}
		})
	}
}

func TestDegradedModeServesCacheOnlyAndHeals(t *testing.T) {
	st := newFlakyStorage()
	st.Put("cold", []byte("stored"))
	ts, err := New(Options{
		Policy:                WriteThrough,
		Engine:                engine.New(engine.Options{}),
		Storage:               st,
		DegradedProbeInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if err := ts.Set("hot", []byte("cached")); err != nil {
		t.Fatal(err)
	}

	st.failReads.Store(true)
	degrade(t, ts)
	if h := ts.Health(); h.DegradedTransit != 1 {
		t.Fatalf("%d trips for one degradation: %+v", h.DegradedTransit, h)
	}
	// Degraded: a cold miss is absent (no storage stall), a cached key
	// still serves, and the short-circuit is counted.
	if _, err := ts.Get("cold"); err != ErrNotFound {
		t.Fatalf("degraded cold Get: %v", err)
	}
	if v, err := ts.Get("hot"); err != nil || string(v) != "cached" {
		t.Fatalf("degraded hot Get: %q, %v", v, err)
	}
	if h := ts.Health(); h.DegradedOps == 0 {
		t.Fatalf("degraded short-circuits not counted: %+v", h)
	}
	// Writes fail fast while degraded (write-through must not lie).
	st.failWrites.Store(true)
	if err := ts.Set("w", []byte("x")); err == nil {
		t.Fatal("degraded write-through Set succeeded")
	}
	st.failWrites.Store(false)

	// Heal the disk: after the probe interval one Get probes storage,
	// succeeds, and the store exits degraded mode.
	st.failReads.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, err := ts.Get("cold"); err == nil && string(v) == "stored" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store never healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := ts.Health(); h.Degraded {
		t.Fatalf("still degraded after heal: %+v", h)
	}
}

func TestExpiryDeletesThroughToStorage(t *testing.T) {
	now := time.Unix(100, 0)
	st := NewMapStorage()
	eng := engine.New(engine.Options{Clock: func() time.Time { return now }})
	ts, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	sink := &recordingSink{}
	ts.SetSink(sink)
	if err := ts.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !ts.ExpireAt("k", now.Add(time.Second).UnixNano()) {
		t.Fatal("ExpireAt on present key")
	}
	now = now.Add(2 * time.Second)
	// The expired read must NOT resurrect the key from storage — the
	// lazy-expiry miss deletes through instead.
	if _, err := ts.Get("k"); err != ErrNotFound {
		t.Fatalf("expired Get: %v", err)
	}
	if _, ok, _ := st.Get("k"); ok {
		t.Fatal("expired key still in storage (would resurrect)")
	}
	var sawExpire, sawDelete bool
	for _, op := range sink.snapshot() {
		if op.key == "k" && op.expire {
			sawExpire = true
		}
		if op.key == "k" && op.del {
			sawDelete = true
		}
	}
	if !sawExpire || !sawDelete {
		t.Fatalf("sink ops missing expire/delete: %+v", sink.snapshot())
	}
	// Once deleted through, a fresh Get stays absent.
	if _, err := ts.Get("k"); err != ErrNotFound {
		t.Fatalf("second Get: %v", err)
	}
}

func TestExpirySweepPurgesStorage(t *testing.T) {
	nowNs := atomic.Int64{}
	nowNs.Store(time.Unix(100, 0).UnixNano())
	st := NewMapStorage()
	eng := engine.New(engine.Options{Clock: func() time.Time { return time.Unix(0, nowNs.Load()) }})
	ts, err := New(Options{
		Policy:  WriteThrough,
		Engine:  eng,
		Storage: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for _, k := range []string{"a", "b", "c"} {
		if err := ts.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		ts.ExpireAt(k, time.Unix(101, 0).UnixNano())
	}
	nowNs.Store(time.Unix(200, 0).UnixNano())
	deadline := time.Now().Add(2 * time.Second)
	for st.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep left %d storage keys", st.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFlushAllClearsEveryTier(t *testing.T) {
	for _, policy := range []Policy{WriteThrough, WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			ts, sink := newSinkStore(t, policy)
			st := ts.opts.Storage
			for _, k := range []string{"a", "b", "c"} {
				if err := ts.Set(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := ts.FlushAll(); err != nil {
				t.Fatal(err)
			}
			// No resurrection: cold reads stay absent because storage was
			// cleared too.
			for _, k := range []string{"a", "b", "c"} {
				if _, err := ts.Get(k); err != ErrNotFound {
					t.Fatalf("post-flush Get %s: %v", k, err)
				}
			}
			if got, _ := st.BatchGet([]string{"a", "b", "c"}); len(got) != 0 {
				t.Fatalf("storage kept %v after FlushAll", got)
			}
			ops := sink.snapshot()
			if len(ops) == 0 || !ops[len(ops)-1].flushAll {
				t.Fatalf("sink's last op is not flushAll: %+v", ops)
			}
		})
	}
}

func TestFlushAllCacheOnly(t *testing.T) {
	ts, sink := newSinkStore(t, CacheOnly)
	if err := ts.Set("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := ts.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Get("a"); err != ErrNotFound {
		t.Fatalf("post-flush Get: %v", err)
	}
	ops := sink.snapshot()
	if len(ops) == 0 || !ops[len(ops)-1].flushAll {
		t.Fatalf("sink's last op is not flushAll: %+v", ops)
	}
}

// TestExpirySweepReapsCacheOnly: under cache-only too, TTL'd keys that nobody
// reads again give their memory back once they lapse.
func TestExpirySweepReapsCacheOnly(t *testing.T) {
	nowNs := atomic.Int64{}
	nowNs.Store(time.Unix(100, 0).UnixNano())
	eng := engine.New(engine.Options{Clock: func() time.Time { return time.Unix(0, nowNs.Load()) }})
	ts, err := New(Options{Policy: CacheOnly, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	startLen, startMem := eng.Len(), eng.MemUsed()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("session:%04d", i)
		if err := ts.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		ts.ExpireAt(k, time.Unix(101, 0).UnixNano())
	}
	nowNs.Store(time.Unix(200, 0).UnixNano())
	deadline := time.Now().Add(2 * time.Second)
	for eng.Len() != startLen || eng.MemUsed() != startMem {
		if time.Now().After(deadline) {
			t.Fatalf("2 s past the deadline: %d keys, %d B resident; started at %d, %d",
				eng.Len(), eng.MemUsed(), startLen, startMem)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
