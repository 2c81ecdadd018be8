package engine

import (
	"bytes"
	"math"
	"testing"
)

// FuzzLoadEncoded feeds the typed-blob decoder bytes as a disk read or a
// replication socket could deliver them. A rejected blob must leave the
// engine empty. An accepted one is the collection as the engine keeps it,
// and its reads are answered from those bytes, so they must be canonical:
// every count equals the distinct elements the reads return, a sorted set
// ranges in strictly ascending order, and Encode returns the loaded bytes
// exactly. The blob must then load again to the same kind and accounted
// bytes, and delete back to zero.
func FuzzLoadEncoded(f *testing.F) {
	seed := New(Options{})
	seed.RPush("list", []byte("a"), []byte(""), []byte("ccc"))
	seed.SAdd("set", "x", "y")
	seed.ZAdd("zset", "m", 1.5)
	seed.ZAdd("zset", "n", -2)
	seed.HSet("hash", "f", []byte("v"))
	seed.HSet("hash", "g", nil)
	for _, k := range []string{"list", "set", "zset", "hash"} {
		blob, _, _ := seed.Encode(k)
		f.Add(blob)
		f.Add(blob[:len(blob)-1]) // truncated
	}
	zelem := func(m string, sc float64) []byte { return appendZElem(nil, m, sc) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add([]byte{typedMarker, byte(KindList), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})                  // count far past the input
	f.Add([]byte{typedMarker, escapedKind, 'x'})                                              // an escaped string, not a blob
	f.Add([]byte{typedMarker, byte(KindSet), 2, 1, 'a', 1, 'a'})                              // duplicate member
	f.Add([]byte{typedMarker, byte(KindHash), 2, 1, 'f', 1, 'v', 1, 'f', 0})                  // duplicate field
	f.Add(cat([]byte{typedMarker, byte(KindZSet), 2}, zelem("m", 1), zelem("m", 2)))          // duplicate member
	f.Add(cat([]byte{typedMarker, byte(KindZSet), 2}, zelem("b", 1), zelem("a", 1)))          // out of order
	f.Add(cat([]byte{typedMarker, byte(KindZSet), 2}, zelem("a", 1), zelem("b", math.NaN()))) // NaN score
	f.Add([]byte{typedMarker, byte(KindList), 0x81, 0x00, 0})                                 // a count in two bytes where one does

	f.Fuzz(func(t *testing.T, blob []byte) {
		e := New(Options{Shards: 1})
		if err := e.LoadEncoded("k", blob); err != nil {
			if e.Len() != 0 || e.MemUsed() != 0 {
				t.Fatalf("rejected blob left %d keys, %d bytes", e.Len(), e.MemUsed())
			}
			return
		}
		checkServed(t, e, "k")
		again, enc, err := e.Encode("k")
		if err != nil || !enc || !bytes.Equal(again, blob) {
			t.Fatalf("loaded %x, Encode returns %x (%v, %v)", blob, again, enc, err)
		}
		e2 := New(Options{Shards: 1})
		if err := e2.LoadEncoded("k", again); err != nil {
			t.Fatalf("re-encoded blob rejected: %v", err)
		}
		if e.Type("k") != e2.Type("k") || e.MemUsed() != e2.MemUsed() {
			t.Fatalf("round trip changed the collection: %v/%d bytes, then %v/%d bytes",
				e.Type("k"), e.MemUsed(), e2.Type("k"), e2.MemUsed())
		}
		if err := checkBooks(e); err != nil {
			t.Fatal(err)
		}
		if e.Del("k") != 1 || e.MemUsed() != 0 || e.Stats().PayloadBytes != 0 {
			t.Fatalf("delete left %d bytes (%d payload)", e.MemUsed(), e.Stats().PayloadBytes)
		}
	})
}

// checkServed reads key's collection back through every read of its kind:
// the count is that of the elements the reads return, members and fields
// are distinct, and a sorted set ranges in strictly ascending order.
func checkServed(t *testing.T, e *Engine, key string) {
	t.Helper()
	var n, card int
	keys := map[string]bool{}
	switch e.Type(key) {
	case KindList:
		all, _ := e.LRange(key, 0, -1)
		n, card = len(all), must(e.LLen(key))
		keys = nil
	case KindSet:
		all, _ := e.SMembers(key)
		for _, m := range all {
			keys[m] = true
		}
		n, card = len(all), must(e.SCard(key))
	case KindZSet:
		all, _ := e.ZRange(key, 0, -1)
		for i, zm := range all {
			keys[zm.Member] = true
			if i > 0 && !(all[i-1].Score < zm.Score || all[i-1].Score == zm.Score && all[i-1].Member < zm.Member) {
				t.Fatalf("ZRange not strictly ascending at %d: %v", i, all)
			}
		}
		n, card = len(all), must(e.ZCard(key))
	case KindHash:
		all, _ := e.HGetAll(key)
		for _, hf := range all {
			keys[hf.Field] = true
		}
		n, card = len(all), must(e.HLen(key))
	default:
		t.Fatalf("%q holds a %v", key, e.Type(key))
	}
	if card != n || keys != nil && len(keys) != n {
		t.Fatalf("count %d, %d elements read back, %d of them distinct", card, n, len(keys))
	}
}

func must(n int, err error) int {
	if err != nil {
		panic(err)
	}
	return n
}
