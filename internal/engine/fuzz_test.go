package engine

import (
	"testing"
)

// FuzzLoadEncoded feeds the typed-blob decoder bytes as a disk read or a
// replication socket could deliver them. A rejected blob must leave the
// engine empty; an accepted one must re-encode to a blob that loads to
// the same kind, size and accounted bytes, and delete back to zero.
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
	f.Add([]byte{typedMarker, byte(KindList), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // count far past the input
	f.Add([]byte{typedMarker, escapedKind, 'x'})                             // an escaped string, not a blob
	f.Add([]byte{typedMarker, byte(KindSet), 2, 1, 'a', 1, 'a'})             // duplicate member

	f.Fuzz(func(t *testing.T, blob []byte) {
		e := New(Options{Shards: 1})
		if err := e.LoadEncoded("k", blob); err != nil {
			if e.Len() != 0 || e.MemUsed() != 0 {
				t.Fatalf("rejected blob left %d keys, %d bytes", e.Len(), e.MemUsed())
			}
			return
		}
		again, enc, err := e.Encode("k")
		if err != nil || !enc {
			t.Fatal("loaded collection does not encode")
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
