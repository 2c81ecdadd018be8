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

// TestReadPathWork pins the storage round trips and the answers of each read
// shape, under every policy, over a Remote that counts them: a hit costs
// nothing, a miss one storage read for one key or many, concurrent misses of
// one key one fetch between them, and a key whose TTL has lapsed is absent
// under every policy. Write-through deletes a lapsed key's storage copy
// through; write-back's unflushed write of it must not answer for it either.
// Flushes are held off (hour-long interval, batch and budget larger than the
// test) and the engine's clock is the test's. The RTT is long enough that
// eight readers started together all miss before the first fetch returns.
func TestReadPathWork(t *testing.T) {
	type step struct {
		name string
		run  func(t *testing.T, tr *Tiered, cold []byte) // cold: what a storage-only key reads as
		rpcs map[Policy]int64
		// of, when set, picks the counter every round trip must come from.
		of func(RPCStats) int64
	}
	each := func(co, wt, wb int64) map[Policy]int64 {
		return map[Policy]int64{CacheOnly: co, WriteThrough: wt, WriteBack: wb}
	}
	gets := func(s RPCStats) int64 { return s.Gets }
	batchGets := func(s RPCStats) int64 { return s.BatchGets }
	keys := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return out
	}
	hot, cold, mixed := keys("hot", 8), keys("cold", 16), keys("mixcold", 8)
	get := func(t *testing.T, tr *Tiered, key string, want []byte) {
		t.Helper()
		v, err := tr.Get(key)
		if want == nil {
			if err != ErrNotFound {
				t.Fatalf("GET %s: %q, %v; want absent", key, v, err)
			}
		} else if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("GET %s: %q, %v; want %q", key, v, err, want)
		}
	}
	mget := func(t *testing.T, tr *Tiered, ks []string, want func(k string) []byte) {
		t.Helper()
		got, err := tr.BatchGet(ks)
		if err != nil {
			t.Fatalf("MGET: %v", err)
		}
		for _, k := range ks {
			if v := got[k]; !bytes.Equal(v, want(k)) || (v == nil) != (want(k) == nil) {
				t.Fatalf("MGET %s: %q; want %q", k, v, want(k))
			}
		}
	}
	var nowNs atomic.Int64
	var inner *MapStorage // the current subtest's, for the lapsed rows
	lapsed := func(key string, at int64, read func(t *testing.T, tr *Tiered)) func(t *testing.T, tr *Tiered, _ []byte) {
		return func(t *testing.T, tr *Tiered, _ []byte) {
			nowNs.Store(time.Unix(at, 0).UnixNano())
			read(t, tr)
			if v, ok, _ := inner.Get(key); ok {
				t.Fatalf("storage still holds lapsed %s: %q", key, v)
			}
			get(t, tr, key, nil)
		}
	}
	steps := []step{
		{"GET hit", func(t *testing.T, tr *Tiered, _ []byte) {
			get(t, tr, "hot00", []byte("h"))
		}, each(0, 0, 0), nil},
		{"GET miss", func(t *testing.T, tr *Tiered, v []byte) {
			get(t, tr, "single", v)
		}, each(0, 1, 1), gets},
		{"MGET of 16 cold keys", func(t *testing.T, tr *Tiered, v []byte) {
			mget(t, tr, cold, func(string) []byte { return v })
		}, each(0, 1, 1), batchGets},
		{"MGET of 8 hot and 8 cold keys", func(t *testing.T, tr *Tiered, v []byte) {
			mget(t, tr, append(append([]string(nil), hot...), mixed...), func(k string) []byte {
				if k[0] == 'h' {
					return []byte("h")
				}
				return v
			})
		}, each(0, 1, 1), batchGets},
		{"8 concurrent GETs of one cold key", func(t *testing.T, tr *Tiered, v []byte) {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if got, err := tr.Get("shared"); (v == nil) != (err == ErrNotFound) || !bytes.Equal(got, v) {
						t.Errorf("GET shared: %q, %v; want %q", got, err, v)
					}
				}()
			}
			close(start)
			wg.Wait()
		}, each(0, 1, 1), gets},
		{"GET of a lapsed key", lapsed("ttlget", 102, func(t *testing.T, tr *Tiered) {
			get(t, tr, "ttlget", nil)
		}), each(0, 2, 0), nil},
		{"MGET of a lapsed key", lapsed("ttlmget", 104, func(t *testing.T, tr *Tiered) {
			mget(t, tr, []string{"ttlmget"}, func(string) []byte { return nil })
		}), each(0, 2, 0), nil},
	}
	for _, policy := range []Policy{CacheOnly, WriteThrough, WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			nowNs.Store(time.Unix(100, 0).UnixNano())
			inner = NewMapStorage()
			for _, k := range append(append([]string{"single", "shared"}, cold...), mixed...) {
				inner.Put(k, []byte("v"))
			}
			remote := NewRemote(inner, 10*time.Millisecond)
			opts := Options{
				Policy:        policy,
				Engine:        engine.New(engine.Options{Clock: func() time.Time { return time.Unix(0, nowNs.Load()) }}),
				FlushInterval: time.Hour, FlushBatch: 1 << 20, MaxDirty: 1 << 20,
			}
			var coldVal []byte
			if policy != CacheOnly {
				opts.Storage = remote
				coldVal = []byte("v")
			}
			tr, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			for _, k := range hot {
				if err := tr.Set(k, []byte("h")); err != nil {
					t.Fatal(err)
				}
			}
			for k, at := range map[string]int64{"ttlget": 101, "ttlmget": 103} {
				if err := tr.Set(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
				if !tr.ExpireAt(k, time.Unix(at, 0).UnixNano()) {
					t.Fatalf("ExpireAt %s: no such key", k)
				}
			}
			for _, s := range steps {
				t.Run(s.name, func(t *testing.T) {
					before, n := remote.Stats(), remote.TotalRPCs()
					defer func() {
						after, got := remote.Stats(), remote.TotalRPCs()-n
						if want := s.rpcs[policy]; got != want {
							t.Errorf("%d storage round trips, want %d", got, want)
						} else if s.of != nil && s.of(after)-s.of(before) != got {
							t.Errorf("%d of %d round trips of the expected kind (%+v)", s.of(after)-s.of(before), got, after)
						}
					}()
					s.run(t, tr, coldVal)
				})
			}
		})
	}
}

// parkedGet parks the first Get it serves, after reading storage and before
// answering, until release closes: a miss whose storage read is out.
type parkedGet struct {
	Storage
	once            sync.Once
	parked, release chan struct{}
}

func (p *parkedGet) Get(key string) ([]byte, bool, error) {
	v, ok, err := p.Storage.Get(key)
	p.once.Do(func() {
		close(p.parked)
		<-p.release
	})
	return v, ok, err
}

func (p *parkedGet) FlushAll() error { return FlushStorage(p.Storage) }

// TestFillOrdersWithWrites: a GET misses and its storage read is out when a
// writer of the same key arrives. Whichever order the two take, a fill may
// not land the older value over the acked write: once both have returned, a
// fresh GET sees the writer's outcome. The writer is given 20 ms to return
// while the read is parked, and the read is then let go.
func TestFillOrdersWithWrites(t *testing.T) {
	writers := []struct {
		name  string
		write func(tr *Tiered) error
		want  []byte // nil: absent
	}{
		{"SET", func(tr *Tiered) error { return tr.Set("k", []byte("new")) }, []byte("new")},
		{"DEL", func(tr *Tiered) error { return tr.Delete("k") }, nil},
		{"FLUSHALL", func(tr *Tiered) error { return tr.FlushAll() }, nil},
	}
	for _, policy := range []Policy{WriteThrough, WriteBack} {
		for _, w := range writers {
			t.Run(policy.String()+"/"+w.name, func(t *testing.T) {
				inner := NewMapStorage()
				inner.Put("k", []byte("old"))
				stor := &parkedGet{Storage: inner, parked: make(chan struct{}), release: make(chan struct{})}
				tr, err := New(Options{
					Policy: policy, Engine: engine.New(engine.Options{}), Storage: stor,
					FlushInterval: time.Hour, FlushBatch: 1 << 20, MaxDirty: 1 << 20,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				read := make(chan error, 1)
				go func() {
					_, err := tr.Get("k")
					read <- err
				}()
				<-stor.parked
				wrote := make(chan error, 1)
				go func() { wrote <- w.write(tr) }()
				var werr error
				select {
				case werr = <-wrote:
					wrote = nil
				case <-time.After(20 * time.Millisecond):
				}
				close(stor.release)
				if err := <-read; err != nil {
					t.Fatalf("the parked GET: %v", err)
				}
				if wrote != nil {
					werr = <-wrote
				}
				if werr != nil {
					t.Fatalf("%s: %v", w.name, werr)
				}
				v, err := tr.Get("k")
				if w.want == nil {
					if err != ErrNotFound {
						t.Fatalf("GET after %s: %q, %v; want absent", w.name, v, err)
					}
				} else if err != nil || !bytes.Equal(v, w.want) {
					t.Fatalf("GET after %s: %q, %v; want %q", w.name, v, err, w.want)
				}
			})
		}
	}
}
