package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSkiplistPutGet(t *testing.T) {
	s := newSkiplist()
	s.put([]byte("b"), memEntry{seq: 1, value: []byte("v1")})
	s.put([]byte("a"), memEntry{seq: 2, value: []byte("v2")})
	e, ok := s.get([]byte("a"))
	if !ok || string(e.value) != "v2" {
		t.Fatalf("get a: %v %q", ok, e.value)
	}
	if _, ok := s.get([]byte("c")); ok {
		t.Fatal("phantom key")
	}
}

func TestSkiplistOverwrite(t *testing.T) {
	s := newSkiplist()
	s.put([]byte("k"), memEntry{seq: 1, value: []byte("old")})
	s.put([]byte("k"), memEntry{seq: 2, value: []byte("newer")})
	e, _ := s.get([]byte("k"))
	if string(e.value) != "newer" || e.seq != 2 {
		t.Fatalf("overwrite failed: %+v", e)
	}
	if s.entries() != 1 {
		t.Fatalf("entries = %d", s.entries())
	}
}

func TestSkiplistTombstone(t *testing.T) {
	s := newSkiplist()
	s.put([]byte("k"), memEntry{seq: 1, value: []byte("v")})
	s.put([]byte("k"), memEntry{seq: 2, kind: kindDelete})
	e, ok := s.get([]byte("k"))
	if !ok || e.kind != kindDelete {
		t.Fatalf("tombstone lost: %v %+v", ok, e)
	}
}

func TestSkiplistOrderedIteration(t *testing.T) {
	s := newSkiplist()
	keys := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for i, k := range keys {
		s.put([]byte(k), memEntry{seq: uint64(i), value: []byte(k)})
	}
	it := s.iter()
	var got []string
	for it.next() {
		got = append(got, string(it.key()))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func TestSkiplistSeekGE(t *testing.T) {
	s := newSkiplist()
	for _, k := range []string{"b", "d", "f"} {
		s.put([]byte(k), memEntry{value: []byte(k)})
	}
	it := s.iter()
	if !it.seekGE([]byte("c")) || string(it.key()) != "d" {
		t.Fatalf("seekGE(c) -> %q", it.key())
	}
	if !it.seekGE([]byte("b")) || string(it.key()) != "b" {
		t.Fatalf("seekGE(b) -> %q", it.key())
	}
	if it.seekGE([]byte("g")) {
		t.Fatal("seekGE past end should fail")
	}
}

func TestSkiplistSizeAccounting(t *testing.T) {
	s := newSkiplist()
	if s.approximateSize() != 0 {
		t.Fatal("fresh list not empty")
	}
	s.put([]byte("key"), memEntry{value: make([]byte, 100)})
	sz := s.approximateSize()
	if sz < 100 {
		t.Fatalf("size %d too small", sz)
	}
	// Overwrite with a smaller value must shrink accounting.
	s.put([]byte("key"), memEntry{value: make([]byte, 10)})
	if s.approximateSize() >= sz {
		t.Fatalf("size did not shrink: %d -> %d", sz, s.approximateSize())
	}
}

func TestSkiplistMatchesMapProperty(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val uint16
	}) bool {
		s := newSkiplist()
		ref := map[string][]byte{}
		for i, op := range ops {
			k := []byte{op.Key % 32}
			v := []byte(fmt.Sprint(op.Val))
			s.put(k, memEntry{seq: uint64(i), value: v})
			ref[string(k)] = v
		}
		for k, v := range ref {
			e, ok := s.get([]byte(k))
			if !ok || !bytes.Equal(e.value, v) {
				return false
			}
		}
		// Iteration must be sorted and complete.
		it := s.iter()
		var prev []byte
		n := 0
		for it.next() {
			if prev != nil && bytes.Compare(it.key(), prev) <= 0 {
				return false
			}
			prev = append([]byte(nil), it.key()...)
			n++
		}
		return n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSkiplistLarge(t *testing.T) {
	s := newSkiplist()
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%08d", rng.Intn(n)))
		s.put(k, memEntry{seq: uint64(i), value: k})
	}
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%08d", rng.Intn(n)))
		if e, ok := s.get(k); ok && !bytes.Equal(e.value, k) {
			t.Fatalf("value mismatch for %s", k)
		}
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := newBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		b.add(bloomHash([]byte(fmt.Sprintf("key-%d", i))))
	}
	for i := 0; i < 1000; i++ {
		if !b.MayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestBloomRejectsMost(t *testing.T) {
	b := newBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		b.add(bloomHash([]byte(fmt.Sprintf("key-%d", i))))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.MayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.4f too high", rate)
	}
}

func TestBloomMarshalRoundTrip(t *testing.T) {
	b := newBloom(100, 10)
	b.add(bloomHash([]byte("present")))
	b2, err := unmarshalBloom(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !b2.MayContain([]byte("present")) {
		t.Fatal("marshal lost key")
	}
	if b2.k != b.k {
		t.Fatalf("k mismatch: %d vs %d", b2.k, b.k)
	}
	// Degenerate input must not panic.
	if none, err := unmarshalBloom(nil); err != nil || !none.MayContain([]byte("x")) {
		t.Fatalf("empty filter should admit everything (err %v)", err)
	}
	if _, err := unmarshalBloom([]byte{0xff, 0xff, 0xff, 0xff, 1}); err == nil {
		t.Fatal("a filter claiming 4G probes was accepted")
	}
}
