package engine

import (
	"fmt"
	"math/rand"
	"sort"
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

func TestForEachEncodedChunkedCoversEverything(t *testing.T) {
	e := New(Options{Shards: 4})
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i)
		v := fmt.Sprintf("value-%d", i)
		e.Set(k, []byte(v))
		want[k] = v
	}
	e.RPush("list", []byte("a"), []byte("b"))

	got := map[string]string{}
	encoded := 0
	chunks := 0
	// Tiny chunk budget: forces many chunks, exercising the resume-cursor
	// path within a shard.
	err := e.ForEachEncodedChunked(64, func(chunk []SnapEntry) bool {
		chunks++
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
	if chunks < 10 {
		t.Fatalf("only %d chunks for a 64-byte budget", chunks)
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

func TestForEachEncodedChunkedEarlyStop(t *testing.T) {
	e := New(Options{})
	for i := 0; i < 100; i++ {
		e.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	calls := 0
	err := e.ForEachEncodedChunked(1, func(chunk []SnapEntry) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times after returning false", calls)
	}
}

func TestForEachEncodedChunkedSkipsExpired(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("live", []byte("v"))
	e.Set("dead", []byte("v"))
	expire(e, "dead", time.Second)
	now = now.Add(time.Minute)
	seen := map[string]bool{}
	if err := e.ForEachEncodedChunked(0, func(chunk []SnapEntry) bool {
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

// TestForEachEncodedChunkedBoundsDecodedBytes: a full-sync chunk is sized
// by what the replica socket will carry, the decoded values, not by what
// the engine stores. With a compressor at ratio ~0.02 a chunk sized by
// stored bytes would decode to fifty times its budget.
func TestForEachEncodedChunkedBoundsDecodedBytes(t *testing.T) {
	e := New(Options{Shards: 2, Compressor: tailCompressor{}})
	rng := rand.New(rand.NewSource(7))
	const keys, maxChunk = 400, 8 << 10
	largest := 0
	for i := 0; i < keys; i++ {
		k, v := fmt.Sprintf("k%03d", i), zeroTailed(rng, 16, 1000)
		e.Set(k, v)
		largest = max(largest, len(k)+len(v))
	}
	if stored := e.Stats().PayloadBytes; stored > keys*32 {
		t.Fatalf("values not stored compressed: %d payload bytes", stored)
	}
	seen := 0
	err := e.ForEachEncodedChunked(maxChunk, func(chunk []SnapEntry) bool {
		size := 0
		for _, p := range chunk {
			size += len(p.Key) + len(p.Val)
		}
		if size > maxChunk+largest {
			t.Errorf("chunk of %d entries decodes to %d bytes, over %d + one entry", len(chunk), size, maxChunk)
		}
		seen += len(chunk)
		return true
	})
	if err != nil || seen != keys {
		t.Fatalf("walk saw %d of %d keys, err %v", seen, keys, err)
	}
}
