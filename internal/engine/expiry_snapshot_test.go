package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestExpireAtAbsoluteDeadline(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("k", []byte("v"))
	if !e.ExpireAt("k", now.Add(time.Second).UnixNano()) {
		t.Fatal("ExpireAt on present key")
	}
	if e.ExpireAt("missing", now.Add(time.Second).UnixNano()) {
		t.Fatal("ExpireAt on absent key")
	}
	if ttl, ok := e.TTL("k"); !ok || ttl != time.Second {
		t.Fatalf("ttl %v %v", ttl, ok)
	}
	now = now.Add(2 * time.Second)
	if e.Exists("k") {
		t.Fatal("exists past the deadline")
	}
	// A deadline already in the past expires immediately.
	e.Set("p", []byte("v"))
	if !e.ExpireAt("p", now.Add(-time.Second).UnixNano()) {
		t.Fatal("past-deadline ExpireAt on present key")
	}
	if e.Exists("p") {
		t.Fatal("past-deadline key still exists")
	}
}

func TestTakeExpired(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("k", []byte("v"))
	expire(e, "k", time.Second)
	if e.TakeExpired("k") {
		t.Fatal("took a live key")
	}
	now = now.Add(2 * time.Second)
	if !e.TakeExpired("k") {
		t.Fatal("expired key not taken")
	}
	// The take deleted it: a second take reports false (single winner).
	if e.TakeExpired("k") {
		t.Fatal("double take")
	}
	if e.Len() != 0 {
		t.Fatalf("len %d after take", e.Len())
	}
}

func TestCollectExpired(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%d", i)
		e.Set(k, []byte("v"))
		if i < 5 {
			expire(e, k, time.Second)
		}
	}
	if got := e.CollectExpired(100); len(got) != 0 {
		t.Fatalf("collected live keys: %v", got)
	}
	now = now.Add(time.Minute)
	got := e.CollectExpired(100)
	sort.Strings(got)
	if len(got) != 5 {
		t.Fatalf("collected %v, want the 5 expired keys", got)
	}
	// Collect is read-only: the items are still present until taken.
	if e.TakeExpired(got[0]) != true {
		t.Fatal("collected key not takeable")
	}
	// The limit bounds the keys a call looks at, and the next call goes on
	// from there: 19 keys are left, so ten calls of 2 see them all.
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		part := e.CollectExpired(2)
		if len(part) > 2 {
			t.Fatalf("limit 2 not honored: %v", part)
		}
		for _, k := range part {
			seen[k] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("ten calls of 2 found %d of the 4 lapsed keys left", len(seen))
	}
}

// walkedKey is one key a snapshot walk met, copied out under the lock.
type walkedKey struct {
	Key      string
	Val      []byte
	Encoded  bool
	ExpireAt int64
}

// walkHolds walks e with ForEachEncoded and hands fn each hold's entries,
// copied, with no lock held. Returning false from fn stops the walk.
func walkHolds(e *Engine, fn func(chunk []walkedKey) bool) error {
	var chunk []walkedKey
	return e.ForEachEncoded(func(key, val []byte, coll bool, at int64) {
		chunk = append(chunk, walkedKey{string(key), bytes.Clone(val), coll, at})
	}, func() bool {
		ok := fn(chunk)
		chunk = chunk[:0]
		return ok
	})
}

// checkHold fails t if chunk, one read-lock hold's entries, had piled up
// snapHoldBytes of keys and values before its last entry.
func checkHold(t *testing.T, chunk []walkedKey) {
	t.Helper()
	size := 0
	for _, p := range chunk {
		size += len(p.Key) + len(p.Val)
	}
	if last := chunk[len(chunk)-1]; size-len(last.Key)-len(last.Val) >= snapHoldBytes {
		t.Errorf("a hold of %d entries decodes to %d bytes, past %d before its last", len(chunk), size, snapHoldBytes)
	}
}

func TestForEachEncodedCoversEverything(t *testing.T) {
	e := New(Options{Shards: 4})
	want := map[string]string{}
	for i := 0; i < 1200; i++ { // about 300 KiB a stripe: several holds each
		k := fmt.Sprintf("k%d", i)
		v := fmt.Sprintf("%01024d", i)
		e.Set(k, []byte(v))
		want[k] = v
	}
	e.RPush("list", []byte("a"), []byte("b"))

	got := map[string]string{}
	encoded := 0
	holds := 0
	err := walkHolds(e, func(chunk []walkedKey) bool {
		holds++
		checkHold(t, chunk)
		for _, entry := range chunk {
			if entry.Encoded {
				encoded++
				continue
			}
			if _, dup := got[entry.Key]; dup {
				t.Fatalf("key %q visited twice", entry.Key)
			}
			got[entry.Key] = string(entry.Val)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if holds < 16 {
		t.Fatalf("only %d holds for 4 stripes of 300 KiB", holds)
	}
	if encoded != 1 {
		t.Fatalf("encoded entries = %d, want the 1 list", encoded)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d string keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestForEachEncodedEarlyStop(t *testing.T) {
	e := New(Options{Shards: 1})
	for i := 0; i < 400; i++ { // 400 KiB: several holds
		e.Set(fmt.Sprintf("k%d", i), make([]byte, 1024))
	}
	calls := 0
	err := walkHolds(e, func(chunk []walkedKey) bool {
		calls++
		checkHold(t, chunk)
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times after returning false", calls)
	}
}

func TestForEachEncodedSkipsExpired(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("live", []byte("v"))
	e.Set("dead", []byte("v"))
	expire(e, "dead", time.Second)
	now = now.Add(time.Minute)
	seen := map[string]bool{}
	if err := walkHolds(e, func(chunk []walkedKey) bool {
		for _, entry := range chunk {
			seen[entry.Key] = true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !seen["live"] || seen["dead"] {
		t.Fatalf("snapshot saw %v", seen)
	}
}

// TestForEachEncodedBoundsDecodedBytes: a hold of the snapshot walk is
// sized by what the replica socket will carry, the decoded values, not by
// what the engine stores. With a compressor at ratio ~0.02 a hold sized by
// stored bytes would decode to fifty times its budget.
func TestForEachEncodedBoundsDecodedBytes(t *testing.T) {
	e := New(Options{Shards: 2, Compressor: tailCompressor{}})
	rng := rand.New(rand.NewSource(7))
	const keys = 800 // 400 KiB a stripe decoded
	for i := 0; i < keys; i++ {
		e.Set(fmt.Sprintf("k%03d", i), zeroTailed(rng, 16, 1000))
	}
	if stored := e.Stats().PayloadBytes; stored > keys*32 {
		t.Fatalf("values not stored compressed: %d payload bytes", stored)
	}
	seen, holds := 0, 0
	err := walkHolds(e, func(chunk []walkedKey) bool {
		checkHold(t, chunk)
		seen += len(chunk)
		holds++
		return true
	})
	if err != nil || seen != keys {
		t.Fatalf("walk saw %d of %d keys, err %v", seen, keys, err)
	}
	if holds < 2*6 {
		t.Fatalf("%d holds for 2 stripes of 400 KiB decoded", holds)
	}
}

// TestSnapshotWalkAcrossWrites: the walk resumes by hash, so the writes
// between its holds cannot make it skip or repeat a key. Between the holds
// of a one-stripe walk, fn overwrites and deletes keys it has and has not
// visited, inserts keys until the index grows, deletes them until it
// shrinks and, once the keys of one shared hash have been visited, frees
// room in their reach and finishes a resize, whose end moves spilled ones
// into the table behind the walk. Every key live throughout is visited
// exactly once with a value of its own, no key twice, and no key deleted
// before the walk at all.
func TestSnapshotWalkAcrossWrites(t *testing.T) {
	e := New(Options{Shards: 1})
	ix := &e.shards[0].strs
	val := func(key string, version int) []byte { return fmt.Appendf(nil, "%s/%d/%01000d", key, version, 0) }
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("gone%d", i)
		e.Set(k, val(k, 0))
		e.Del(k)
	}
	live := map[string]bool{} // live throughout, as far as the walk has come
	var steady []string
	for i := 0; i < 2000; i++ { // about 2 MiB: some 30 holds
		k := fmt.Sprintf("s%d", i)
		e.Set(k, val(k, 0))
		steady, live[k] = append(steady, k), true
	}
	shared := sharedHashKeys()
	for _, k := range shared {
		e.Set(k, val(k, 0))
		live[k] = true
	}
	inTable := func(key string) bool {
		var kb keyBuf
		k, s := e.locate(key, &kb)
		at := s.lookup(k).at
		return at >= 0 && at < len(ix.words)+len(ix.old.words)
	}
	size := func() int { return len(ix.words) }

	rng := rand.New(rand.NewSource(1))
	visits := map[string]int{}
	holds, grew, shrank, moved := 0, false, false, false
	err := walkHolds(e, func(chunk []walkedKey) bool {
		holds++
		sharedHold := false
		for _, p := range chunk {
			if visits[p.Key]++; visits[p.Key] > 1 {
				t.Fatalf("hold %d: %q visited again", holds, p.Key)
			}
			if !strings.HasPrefix(string(p.Val), p.Key+"/") {
				t.Fatalf("hold %d: %q holds %.20q...", holds, p.Key, p.Val)
			}
			sharedHold = sharedHold || p.Key == shared[0]
		}
		for i := 0; i < 20; i++ {
			k := steady[rng.Intn(len(steady))]
			e.Set(k, val(k, holds))
		}
		for i := 0; i < 5; i++ {
			k := steady[rng.Intn(len(steady))]
			e.Del(k)
			delete(live, k)
		}
		switch before := size(); holds {
		case 1:
			for i := 0; i < 1500; i++ {
				k := fmt.Sprintf("x%d", i)
				e.Set(k, []byte(k+"/"))
			}
			grew = size() > before
		case 3:
			for i := 0; i < 1500; i++ {
				e.Del(fmt.Sprintf("x%d", i))
			}
			shrank = size() < before
		}
		if sharedHold {
			freed := 0
			for _, k := range shared {
				if freed < 10 && inTable(k) {
					e.Del(k)
					delete(live, k)
					freed++
				}
			}
			spilled, begun := len(ix.spill), false
			for i := 0; !begun || ix.old.words != nil; i++ {
				k := fmt.Sprintf("y%d", i)
				e.Set(k, []byte(k+"/"))
				begun = begun || ix.old.words != nil
			}
			moved = len(ix.spill) < spilled
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !grew || !shrank || !moved {
		t.Fatalf("across %d holds: the index grew %v, shrank %v, took spilled keys into its table %v", holds, grew, shrank, moved)
	}
	for k := range live {
		if visits[k] != 1 {
			t.Errorf("%q, live throughout, visited %d times", k, visits[k])
		}
	}
	for i := 0; i < 100; i++ {
		if k := fmt.Sprintf("gone%d", i); visits[k] != 0 {
			t.Errorf("%q, deleted before the walk, visited", k)
		}
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
}
