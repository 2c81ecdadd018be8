package engine

import (
	"fmt"
	"testing"
)

// evictKey is Evict for a test that wants the victim's name: the last key
// pinned (nil: none is) was asked about, as Evict's contract says.
func evictKey(e *Engine, i int, pinned func(key []byte) bool) (victim string, ok bool) {
	ok = e.Evict(i, func(key []byte) bool {
		victim = string(key)
		return pinned != nil && pinned(key)
	})
	return victim, ok
}

// TestEvictSecondChance walks Evict through what CLOCK promises on one
// stripe: a key read since the hand last passed outlives every key that
// was not, strings and collections alike; a pinned key never goes; and a
// stripe with nothing but pinned keys reports that instead of spinning.
func TestEvictSecondChance(t *testing.T) {
	e := New(Options{Shards: 1})
	const n = 200
	key := func(i int) string { return fmt.Sprintf("key:%03d", i) }
	for i := 0; i < n; i++ {
		e.Set(key(i), []byte("v"))
	}
	e.RPush("list:read", []byte("a"))
	e.RPush("list:idle", []byte("a"))
	e.HSet("hash:pinned", "f", []byte("v"))
	pinned := func(k []byte) bool { return string(k) == "hash:pinned" || string(k) == key(0) }

	// Everything enters marked, so the first call clears a lap of marks on
	// its way to a victim. After it, only what is read below is marked.
	if !e.Evict(0, pinned) {
		t.Fatal("nothing to evict from a full stripe")
	}
	hot := map[string]bool{"list:read": true}
	for i := 1; i < n; i += 10 {
		hot[key(i)] = true
		if _, err := e.Get(key(i)); err != nil {
			hot[key(i)] = false // it was the first victim
		}
	}
	if _, err := mget(e, []string{key(5), key(15)}); err != nil {
		t.Fatal(err)
	}
	hot[key(5)], hot[key(15)] = e.Exists(key(5)), e.Exists(key(15))
	if _, err := e.LRange("list:read", 0, -1); err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, live := range hot {
		if live {
			marked++
		}
	}

	// Every unmarked, unpinned key goes before any marked one does: the
	// table shrinks from 256 slots to 32 on the way.
	for cold := e.Len() - marked - 2; cold > 0; cold-- {
		got, ok := evictKey(e, 0, pinned)
		if !ok || hot[got] || pinned([]byte(got)) {
			t.Fatalf("Evict = %q, %v with %d cold keys left", got, ok, cold)
		}
	}
	for k, live := range hot {
		if live && !e.Exists(k) {
			t.Errorf("%s was read since the hand passed it and is gone", k)
		}
	}
	if e.Exists("list:idle") {
		t.Error("list:idle was never read and outlived every cold string")
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}

	// Now the marked keys, on their second lap, and then nothing.
	for ; marked > 0; marked-- {
		if got, ok := evictKey(e, 0, pinned); !ok || !hot[got] {
			t.Fatalf("Evict = %q, %v with %d marked keys left", got, ok, marked)
		}
	}
	if got, ok := evictKey(e, 0, pinned); ok {
		t.Fatalf("Evict took %q from a stripe of pinned keys", got)
	}
	if !e.Exists(key(0)) || !e.Exists("hash:pinned") || e.Len() != 2 {
		t.Fatalf("pinned keys did not survive: %d keys left", e.Len())
	}
	if got, ok := evictKey(e, 0, nil); !ok {
		t.Fatalf("Evict with no pin = %q, %v", got, ok)
	}
}

// TestClockReadsOnlyWhatItMayEvict: the hand tests a slot's reference bit
// before it reads the slot's record, so clearing a mark costs no record
// read (a cache miss into the slab) and pinned, which is asked once per
// record read, hears only of keys the hand could take. A stripe of keys
// that all entered marked is emptied at one record read per eviction, and a
// pinned key that stays marked is neither taken nor read.
func TestClockReadsOnlyWhatItMayEvict(t *testing.T) {
	e := New(Options{Shards: 1})
	const n = 400
	key := func(i int) string { return fmt.Sprintf("key:%03d", i) }
	for i := 0; i < n; i++ {
		e.Set(key(i), []byte("v"))
	}
	hot := key(7)
	reads := map[string]int{}
	total := 0
	pinned := func(k []byte) bool {
		total++
		reads[string(k)]++
		return string(k) == hot
	}
	for left := n; left > 1; left-- {
		if _, err := e.Get(hot); err != nil { // marked whenever the hand comes by
			t.Fatalf("Get(%s) with %d keys left: %v", hot, left, err)
		}
		if !e.Evict(0, pinned) {
			t.Fatalf("nothing to evict with %d keys left", left)
		}
	}
	if total != n-1 || reads[hot] != 0 {
		t.Fatalf("%d evictions read %d records, %d of them the marked, pinned key's; want %d and 0",
			n-1, total, reads[hot], n-1)
	}
	if !e.Exists(hot) || e.Len() != 1 {
		t.Fatalf("the pinned key did not survive alone: %d keys left", e.Len())
	}
	// Left alone it loses its mark like any other key, pinned or not, and
	// stays because it is pinned: the next hand to find it unpinned takes it
	// without another lap.
	if e.Evict(0, pinned) || reads[hot] != 1 {
		t.Fatalf("Evict took the pinned key, or read its record %d times, want once", reads[hot])
	}
	if !e.Evict(0, nil) || e.Len() != 0 {
		t.Fatal("the key outlived its pin by a lap")
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
}
