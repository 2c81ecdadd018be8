package cache

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/engine"
)

// outcome is what a hand-rolled RMW step tells commit: the value the op
// left, or a delete, or nothing (the op changed nothing).
type outcome struct {
	val            []byte
	del, enc, skip bool
}

// handRolled is the sequence every RMW command spelled out for itself
// before Mutate existed (Warm, Locked, engine op, the Propagate call that
// fit the outcome), kept as the reference Mutate is compared against.
func handRolled(t *Tiered, key string, op func() (outcome, error)) error {
	t.Warm(key)
	defer t.lockKey(key).Unlock()
	out, err := op()
	if err != nil || out.skip {
		return err
	}
	if out.del {
		out.val = nil
	}
	return t.commit([]write{{key: key, val: out.val, enc: out.enc, pre: true}}, nil)
}

// writeCounter counts the storage tier's write calls.
type writeCounter struct {
	Storage
	writes atomic.Int64
}

func (w *writeCounter) Put(k string, v []byte) error {
	w.writes.Add(1)
	return w.Storage.Put(k, v)
}
func (w *writeCounter) Delete(k string) error {
	w.writes.Add(1)
	return w.Storage.Delete(k)
}
func (w *writeCounter) BatchPut(e map[string][]byte) error {
	w.writes.Add(1)
	return w.Storage.BatchPut(e)
}
func (w *writeCounter) BatchDelete(k []string) error {
	w.writes.Add(1)
	return w.Storage.BatchDelete(k)
}

// rmwStep is one command in both spellings: what Mutate is told (did the
// op change the key) and what the hand-rolled sequence committed.
type rmwStep struct {
	name, key string
	op        func(eng *engine.Engine) (changed bool, hand outcome, err error)
	wantErr   error
	noWrite   bool // the step must not reach storage or the sink
}

func collectionOutcome(eng *engine.Engine, key string) outcome {
	if blob, enc, err := eng.Encode(key); err == nil && enc {
		return outcome{val: blob, enc: true}
	}
	return outcome{del: true}
}

// rmwScript is the command sequence; tiered adds the steps on keys that
// live only in the storage tier.
func rmwScript(tiered bool) []rmwStep {
	incr := func(key string) rmwStep {
		return rmwStep{name: "INCR " + key, key: key, op: func(eng *engine.Engine) (bool, outcome, error) {
			v, err := eng.IncrBy(key, 1)
			return err == nil, outcome{val: strconv.AppendInt(nil, v, 10)}, err
		}}
	}
	setnx := func(val string, noWrite bool) rmwStep {
		return rmwStep{name: "SETNX nx " + val, key: "nx", noWrite: noWrite, op: func(eng *engine.Engine) (bool, outcome, error) {
			created, err := eng.SetNX("nx", []byte(val))
			return created, outcome{val: []byte(val), skip: !created}, err
		}}
	}
	cas := func(old, new string, wantErr error) rmwStep {
		return rmwStep{name: "CAS nx " + old + " " + new, key: "nx", wantErr: wantErr, noWrite: wantErr != nil,
			op: func(eng *engine.Engine) (bool, outcome, error) {
				err := eng.CompareAndSet("nx", []byte(old), []byte(new))
				return err == nil, outcome{val: []byte(new)}, err
			}}
	}
	lpop := rmwStep{name: "LPOP l", key: "l", op: func(eng *engine.Engine) (bool, outcome, error) {
		_, err := eng.LPop("l")
		return err == nil, collectionOutcome(eng, "l"), err
	}}
	sadd := func(noWrite bool) rmwStep {
		return rmwStep{name: "SADD s m", key: "s", noWrite: noWrite, op: func(eng *engine.Engine) (bool, outcome, error) {
			n, err := eng.SAdd("s", "m")
			hand := collectionOutcome(eng, "s")
			hand.skip = n == 0
			return n > 0, hand, err
		}}
	}
	steps := []rmwStep{
		incr("n"), incr("n"),
		setnx("a", false), setnx("b", true),
		cas("a", "c", nil), cas("a", "d", engine.ErrCASMismatch),
		{name: "LPUSH l x y", key: "l", op: func(eng *engine.Engine) (bool, outcome, error) {
			_, err := eng.LPush("l", []byte("x"), []byte("y"))
			return err == nil, collectionOutcome(eng, "l"), err
		}},
		lpop, lpop, // the second pop empties the list: a delete
		sadd(false), sadd(true),
	}
	if tiered {
		steps = append(steps,
			incr("cold"), // the op must compose with the 41 in storage
			rmwStep{name: "LPOP coldlist", key: "coldlist", op: func(eng *engine.Engine) (bool, outcome, error) {
				_, err := eng.LPop("coldlist")
				return err == nil, collectionOutcome(eng, "coldlist"), err
			}})
	}
	return steps
}

// TestTieredMutateAgainstHandRolled: for each kind of RMW command, Mutate
// leaves the cache tier, the storage tier and the replication sink as the
// hand-rolled Warm + Locked + Propagate* sequence did, under every policy:
// a no-op reaches neither storage nor the sink, a failed op commits
// nothing, the last pop of a list deletes it through, and an op on a key
// that lives only in storage composes with it.
func TestTieredMutateAgainstHandRolled(t *testing.T) {
	type store struct {
		tr   *Tiered
		eng  *engine.Engine
		stor *MapStorage
		wc   *writeCounter
		sink *recordingSink
	}
	open := func(t *testing.T, policy Policy) store {
		s := store{eng: engine.New(engine.Options{}), stor: NewMapStorage(), sink: &recordingSink{}}
		s.stor.Put("cold", []byte("41"))
		scratch := engine.New(engine.Options{})
		scratch.RPush("coldlist", []byte("only"))
		blob, _, _ := scratch.Encode("coldlist")
		s.stor.Put("coldlist", blob)
		s.wc = &writeCounter{Storage: s.stor}
		opts := Options{Policy: policy, Engine: s.eng}
		if policy != CacheOnly {
			opts.Storage = s.wc
		}
		tr, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		tr.SetSink(s.sink)
		s.tr = tr
		return s
	}
	contents := func(s store) (cache, storage map[string]string) {
		cache, storage = map[string]string{}, map[string]string{}
		s.eng.ForEachEncodedChunked(0, func(chunk []engine.SnapEntry) bool {
			for _, p := range chunk {
				cache[p.Key] = fmt.Sprintf("%v:%q", p.Encoded, p.Val)
			}
			return true
		})
		for k, v := range s.stor.m {
			storage[k] = string(v)
		}
		return cache, storage
	}
	for _, policy := range []Policy{CacheOnly, WriteThrough, WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			got, want := open(t, policy), open(t, policy)
			for _, step := range rmwScript(policy != CacheOnly) {
				sinkBefore := len(got.sink.snapshot())
				writesBefore := got.wc.writes.Load()
				gotErr := got.tr.Mutate(step.key, func() (bool, error) {
					changed, _, err := step.op(got.eng)
					return changed, err
				})
				wantErr := handRolled(want.tr, step.key, func() (outcome, error) {
					_, hand, err := step.op(want.eng)
					return hand, err
				})
				if gotErr != wantErr || gotErr != step.wantErr {
					t.Fatalf("%s: Mutate error %v, hand-rolled %v, want %v", step.name, gotErr, wantErr, step.wantErr)
				}
				if !step.noWrite {
					continue
				}
				if n := len(got.sink.snapshot()); n != sinkBefore {
					t.Errorf("%s changed nothing but reached the sink: %+v", step.name, got.sink.snapshot()[sinkBefore:])
				}
				if policy == WriteThrough && got.wc.writes.Load() != writesBefore {
					t.Errorf("%s changed nothing but wrote to storage", step.name)
				}
			}
			if policy == WriteThrough && got.wc.writes.Load() != want.wc.writes.Load() {
				t.Errorf("storage writes: Mutate %d, hand-rolled %d", got.wc.writes.Load(), want.wc.writes.Load())
			}
			for _, s := range []store{got, want} {
				if err := s.tr.FlushDirty(); err != nil {
					t.Fatal(err)
				}
			}
			gotCache, gotStorage := contents(got)
			wantCache, wantStorage := contents(want)
			if !reflect.DeepEqual(gotCache, wantCache) {
				t.Errorf("cache tier:\n Mutate      %v\n hand-rolled %v", gotCache, wantCache)
			}
			if !reflect.DeepEqual(gotStorage, wantStorage) {
				t.Errorf("storage tier:\n Mutate      %v\n hand-rolled %v", gotStorage, wantStorage)
			}
			if g, w := got.sink.snapshot(), want.sink.snapshot(); !reflect.DeepEqual(g, w) {
				t.Errorf("sink:\n Mutate      %+v\n hand-rolled %+v", g, w)
			}
			if policy == CacheOnly {
				return
			}
			// Pin the reference to the protocol, not only the two to each other.
			if gotStorage["cold"] != "42" || gotStorage["n"] != "2" || gotStorage["nx"] != "c" {
				t.Errorf("storage strings off: %v", gotStorage)
			}
			for _, k := range []string{"l", "coldlist"} {
				if _, ok := gotStorage[k]; ok {
					t.Errorf("%s emptied by its last pop is still in storage", k)
				}
			}
		})
	}
}

// TestMutateKeyPinnedAgainstEviction: Mutate reads the key back from the
// engine after op, so the key must stay resident from op to the commit
// whatever the eviction hand does meanwhile. Here a reader on other stripes
// fills a 2 KB cache two hundred times over between the INCR and the
// read-back; an evicted counter would be committed to storage as a delete.
func TestMutateKeyPinnedAgainstEviction(t *testing.T) {
	stor := NewMapStorage()
	eng := engine.New(engine.Options{Shards: 4})
	tr, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: stor, CacheCapacityBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var cold []string
	for i := 0; len(cold) < 200; i++ {
		// Other stripes only: a miss must not need ctr's RMW lock, held below.
		if k := fmt.Sprintf("cold:%04d", i); eng.ShardIndex(k) != eng.ShardIndex("ctr") {
			cold = append(cold, k)
			if err := stor.Put(k, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Set("ctr", []byte("41")); err != nil {
		t.Fatal(err)
	}
	err = tr.Mutate("ctr", func() (bool, error) {
		if _, err := eng.IncrBy("ctr", 1); err != nil {
			return false, err
		}
		reads := make(chan error, 1)
		go func() {
			for _, k := range cold {
				if _, err := tr.Get(k); err != nil {
					reads <- fmt.Errorf("%s: %w", k, err)
					return
				}
			}
			reads <- nil
		}()
		return true, <-reads
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Evictions == 0 {
		t.Fatal("the reads evicted nothing: the test exercised no eviction")
	}
	sv, ok, err := stor.Get("ctr")
	if err != nil || !ok {
		t.Fatalf("storage lost the counter: present %v, err %v", ok, err)
	}
	if got := engine.UnescapeStringValue(sv); string(got) != "42" {
		t.Fatalf("storage holds %q, want 42", got)
	}
	if v, err := tr.Get("ctr"); err != nil || string(v) != "42" {
		t.Fatalf("Get ctr: %q, %v; want 42", v, err)
	}
}

// TestEvictionBetweenWarmAndLock: an in-place mutation warms its key before
// it takes the key's RMW lock, and an eviction may fall between the two. The
// test holds the stripe's RMW lock itself while the mutation starts, waits
// for its warm to admit the key, evicts the key again and lets go: the
// mutation must still compose with the stored 41, not with nothing.
func TestEvictionBetweenWarmAndLock(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(tr *Tiered) error
		want   string
		check  func(tr *Tiered) error
	}{
		{"INCR", func(tr *Tiered) error {
			return tr.Mutate("k", func() (bool, error) {
				n, err := tr.Engine().IncrBy("k", 1)
				if err == nil && n != 42 {
					err = fmt.Errorf("INCR of an evicted 41 = %d", n)
				}
				return true, err
			})
		}, "42", nil},
		{"ExpireAt", func(tr *Tiered) error {
			if !tr.ExpireAt("k", time.Now().Add(time.Hour).UnixNano()) {
				return errors.New("ExpireAt: no such key")
			}
			return nil
		}, "41", func(tr *Tiered) error {
			if _, ok := tr.Engine().TTL("k"); !ok {
				return errors.New("no TTL on the key")
			}
			return nil
		}},
		{"Persist", func(tr *Tiered) error {
			if !tr.Persist("k") {
				return errors.New("Persist: no such key")
			}
			return nil
		}, "41", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			stor := NewMapStorage()
			eng := engine.New(engine.Options{Shards: 4})
			tr, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: stor, CacheCapacityBytes: 2048})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if err := tr.Set("k", []byte("41")); err != nil {
				t.Fatal(err)
			}
			for i := 0; eng.Exists("k"); i++ {
				if err := tr.Set(fmt.Sprintf("fill:%04d", i), make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
			}
			si := eng.ShardIndex("k")
			tr.rmw[si].Lock()
			done := make(chan error, 1)
			go func() { done <- c.mutate(tr) }()
			for !eng.Exists("k") { // the mutation's warm admits it
				time.Sleep(time.Millisecond)
			}
			for eng.Exists("k") {
				eng.Evict(si, tr.pinned[si])
			}
			tr.rmw[si].Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if v, err := eng.Get("k"); err != nil || string(v) != c.want {
				t.Fatalf("engine holds %q, %v; want %s", v, err, c.want)
			}
			if sv, ok, err := stor.Get("k"); err != nil || !ok || string(engine.UnescapeStringValue(sv)) != c.want {
				t.Fatalf("storage holds %q, present %v, err %v; want %s", sv, ok, err, c.want)
			}
			if c.check != nil {
				if err := c.check(tr); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestMissTakesNoRMWLock: a read that misses goes to storage without its
// key's RMW stripe lock, so it does not queue behind a write on the stripe.
func TestMissTakesNoRMWLock(t *testing.T) {
	stor := NewMapStorage()
	eng := engine.New(engine.Options{})
	tr, err := New(Options{Policy: WriteThrough, Engine: eng, Storage: stor})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cold := sameStripeKeys(t, eng, "held", 1)[0]
	if err := stor.Put(cold, []byte("v")); err != nil {
		t.Fatal(err)
	}
	err = tr.Mutate("held", func() (bool, error) {
		read := make(chan error, 1)
		go func() {
			_, err := tr.Get(cold)
			read <- err
		}()
		select {
		case err := <-read:
			return false, err
		case <-time.After(5 * time.Second):
			return false, fmt.Errorf("miss of %s waited for the stripe's RMW lock", cold)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpdateSeesLapsedTTLAsAbsent: under write-through the storage copy of a
// key outlives its TTL until someone deletes it through. An Update that
// arrives in between must be told the key is gone, not be handed the stored
// value, and what it writes must carry no trace of the old one.
func TestUpdateSeesLapsedTTLAsAbsent(t *testing.T) {
	stor := NewMapStorage()
	tr := newWT(t, stor)
	if err := tr.Set("k", []byte("expired")); err != nil {
		t.Fatal(err)
	}
	if !tr.ExpireAt("k", time.Now().Add(2*time.Millisecond).UnixNano()) {
		t.Fatal("ExpireAt: key not found")
	}
	time.Sleep(10 * time.Millisecond) // lapsed; the sweeper's next round is up to 100 ms away
	err := tr.Update("k", func(old []byte, exists bool) []byte {
		if exists || old != nil {
			t.Errorf("Update of a lapsed key saw %q, exists=%v", old, exists)
		}
		return []byte("fresh")
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tr.Get("k"); err != nil || string(v) != "fresh" {
		t.Fatalf("Get k: %q, %v; want fresh", v, err)
	}
	if v, _, _ := stor.Get("k"); string(v) != "fresh" {
		t.Fatalf("storage holds %q, want fresh", v)
	}
}

// TestUpdateOfCollectionIsWrongType: Update is a string operation. On a key
// that holds a list it fails as GET and INCR do, under every policy, and
// the list is still there afterwards.
func TestUpdateOfCollectionIsWrongType(t *testing.T) {
	for _, policy := range []Policy{CacheOnly, WriteThrough, WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			var stor Storage
			if policy != CacheOnly {
				stor = NewMapStorage()
			}
			tr := newTiered(t, policy, stor)
			eng := tr.Engine()
			err := tr.Mutate("l", func() (bool, error) {
				_, err := eng.RPush("l", []byte("a"), []byte("b"))
				return err == nil, err
			})
			if err != nil {
				t.Fatal(err)
			}
			err = tr.Update("l", func(old []byte, exists bool) []byte {
				t.Errorf("fn ran on a list: old %q, exists=%v", old, exists)
				return []byte("clobbered")
			})
			if err != engine.ErrWrongType {
				t.Fatalf("Update of a list: %v, want ErrWrongType", err)
			}
			if n, err := eng.LLen("l"); err != nil || n != 2 {
				t.Fatalf("the list after the Update: len %d, %v; want 2", n, err)
			}
		})
	}
}
