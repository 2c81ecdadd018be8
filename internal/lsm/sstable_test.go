package lsm

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func buildTestTable(t *testing.T, dir string, n int, cache *blockCache) (*tableReader, tableMeta) {
	t.Helper()
	tb, err := newTableBuilder(tableFileName(dir, 1), 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key%06d", i))
		if err := tb.add(key, memEntry{seq: uint64(i + 1), value: []byte(fmt.Sprintf("val%06d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := tb.finish(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := openTable(dir, meta, cache)
	if err != nil {
		t.Fatal(err)
	}
	return r, meta
}

func TestSSTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, meta := buildTestTable(t, dir, 500, nil)
	defer r.unref()
	if meta.Count != 500 {
		t.Fatalf("count = %d", meta.Count)
	}
	if string(meta.Smallest) != "key000000" || string(meta.Largest) != "key000499" {
		t.Fatalf("range %q..%q", meta.Smallest, meta.Largest)
	}
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key%06d", i))
		e, ok, err := r.get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("missing %s", key)
		}
		if want := fmt.Sprintf("val%06d", i); string(e.value) != want {
			t.Fatalf("got %q want %q", e.value, want)
		}
		if e.seq != uint64(i+1) {
			t.Fatalf("seq %d", e.seq)
		}
	}
}

func TestSSTableMissingKeys(t *testing.T) {
	dir := t.TempDir()
	r, _ := buildTestTable(t, dir, 100, nil)
	defer r.unref()
	for _, k := range []string{"aaa", "key000050x", "zzz", "key999999"} {
		if _, ok, err := r.get([]byte(k)); err != nil || ok {
			t.Fatalf("key %q: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestSSTableOutOfOrderRejected(t *testing.T) {
	dir := t.TempDir()
	tb, err := newTableBuilder(tableFileName(dir, 1), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.abandon()
	if err := tb.add([]byte("b"), memEntry{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.add([]byte("a"), memEntry{}); err == nil {
		t.Fatal("out-of-order add should fail")
	}
	if err := tb.add([]byte("b"), memEntry{}); err == nil {
		t.Fatal("duplicate add should fail")
	}
}

func TestSSTableIterator(t *testing.T) {
	dir := t.TempDir()
	r, _ := buildTestTable(t, dir, 300, nil)
	defer r.unref()
	it := r.iter()
	i := 0
	var prev []byte
	for it.next() {
		if prev != nil && bytes.Compare(it.key(), prev) <= 0 {
			t.Fatal("iterator not sorted")
		}
		prev = append(prev[:0], it.key()...)
		i++
	}
	if it.err() != nil {
		t.Fatal(it.err())
	}
	if i != 300 {
		t.Fatalf("iterated %d entries", i)
	}
}

func TestSSTableIteratorSeekGE(t *testing.T) {
	dir := t.TempDir()
	r, _ := buildTestTable(t, dir, 300, nil)
	defer r.unref()
	it := r.iter()
	if !it.seekGE([]byte("key000100")) || string(it.key()) != "key000100" {
		t.Fatalf("seek exact: %q", it.key())
	}
	it2 := r.iter()
	if !it2.seekGE([]byte("key0000995")) || string(it2.key()) != "key000100" {
		t.Fatalf("seek between: %q", it2.key())
	}
	it3 := r.iter()
	if it3.seekGE([]byte("zzz")) {
		t.Fatal("seek past end should fail")
	}
	// After seek, next() continues in order.
	it4 := r.iter()
	it4.seekGE([]byte("key000298"))
	if !it4.next() || string(it4.key()) != "key000299" {
		t.Fatalf("next after seek: %q", it4.key())
	}
	if it4.next() {
		t.Fatal("iterator should be exhausted")
	}
}

func TestSSTableTombstonesPreserved(t *testing.T) {
	dir := t.TempDir()
	tb, _ := newTableBuilder(tableFileName(dir, 1), 512)
	tb.add([]byte("dead"), memEntry{seq: 5, kind: kindDelete})
	tb.add([]byte("live"), memEntry{seq: 6, value: []byte("v")})
	meta, err := tb.finish(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := openTable(dir, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.unref()
	e, ok, _ := r.get([]byte("dead"))
	if !ok || e.kind != kindDelete {
		t.Fatalf("tombstone lost: %v %+v", ok, e)
	}
}

func TestSSTableCorruptBlockDetected(t *testing.T) {
	dir := t.TempDir()
	r, meta := buildTestTable(t, dir, 200, nil)
	r.unref()
	// Flip a byte in the first data block.
	path := tableFileName(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := openTable(dir, meta, nil)
	if err != nil {
		t.Fatal(err) // index/footer are intact
	}
	defer r2.unref()
	_, _, err = r2.get([]byte("key000000"))
	if err != errBadBlock {
		t.Fatalf("want errBadBlock, got %v", err)
	}
}

func TestSSTableBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "000001.sst")
	os.WriteFile(path, bytes.Repeat([]byte{0}, 100), 0o644)
	if _, err := openTable(dir, tableMeta{Num: 1}, nil); err != errBadMagic {
		t.Fatalf("want errBadMagic, got %v", err)
	}
	os.WriteFile(path, []byte{1, 2, 3}, 0o644)
	if _, err := openTable(dir, tableMeta{Num: 1}, nil); err != errBadFooter {
		t.Fatalf("want errBadFooter, got %v", err)
	}
}

func TestSSTableWithCache(t *testing.T) {
	dir := t.TempDir()
	cache := newBlockCache(1 << 20)
	r, _ := buildTestTable(t, dir, 500, cache)
	defer r.unref()
	key := []byte("key000042")
	r.get(key)
	h0, _, _ := cache.stats()
	r.get(key)
	h1, _, _ := cache.stats()
	if h1 <= h0 {
		t.Fatalf("second read should hit cache: hits %d -> %d", h0, h1)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	c := newBlockCache(100)
	c.put(1, 0, make([]byte, 60))
	c.put(1, 60, make([]byte, 60)) // exceeds 100 -> evict oldest
	if _, ok := c.get(1, 0, true); ok {
		t.Fatal("oldest block should be evicted")
	}
	if _, ok := c.get(1, 60, true); !ok {
		t.Fatal("newest block should remain")
	}
}

func TestBlockCacheDropFile(t *testing.T) {
	c := newBlockCache(1 << 20)
	c.put(1, 0, []byte("a"))
	c.put(2, 0, []byte("b"))
	c.dropFile(1)
	if _, ok := c.get(1, 0, true); ok {
		t.Fatal("dropped file still cached")
	}
	if _, ok := c.get(2, 0, true); !ok {
		t.Fatal("other file evicted by dropFile")
	}
}

func TestBlockCacheUpdateSameKey(t *testing.T) {
	c := newBlockCache(1000)
	c.put(1, 0, make([]byte, 100))
	c.put(1, 0, make([]byte, 200))
	_, _, bytes := c.stats()
	if bytes != 200 {
		t.Fatalf("bytes = %d, want 200", bytes)
	}
}

func TestNilBlockCache(t *testing.T) {
	if c := newBlockCache(0); c != nil {
		t.Fatal("zero-size cache should be nil")
	}
	if c := newBlockCache(-1); c != nil {
		t.Fatal("negative-size cache should be nil")
	}
}

// goldenEntry is entry i of testdata/000007.sst: 600 entries, every seventh
// a tombstone, values of 0..96 bytes, 512 B blocks, 10 bloom bits per key.
// The file was written by the tableBuilder of the commit before the builder
// stopped keeping a copy of every key (PR 28), so it pins the table format,
// the bloom filter's bits included: today's builder must produce the same
// bytes from the same entries, and today's reader must read them.
func goldenEntry(i int) ([]byte, memEntry) {
	key := []byte(fmt.Sprintf("golden%05d", i*3))
	if i%7 == 0 {
		return key, memEntry{seq: uint64(1000 + i), kind: kindDelete}
	}
	val := make([]byte, i%97)
	for j := range val {
		val[j] = byte(i + j)
	}
	return key, memEntry{seq: uint64(1000 + i), kind: kindSet, value: val}
}

const goldenEntries = 600

func TestGoldenTableFromParentBuilder(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "000007.sst"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tb, err := newTableBuilder(tableFileName(dir, 7), 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenEntries; i++ {
		k, e := goldenEntry(i)
		if err := tb.add(k, e); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := tb.finish(7)
	if err != nil {
		t.Fatal(err)
	}
	built, err := os.ReadFile(tableFileName(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built, golden) {
		t.Fatalf("the builder no longer writes the parent's bytes (%d vs %d)", len(built), len(golden))
	}

	r, err := openTable("testdata", meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.unref()
	for i := 0; i < goldenEntries; i++ {
		k, want := goldenEntry(i)
		got, ok, err := r.get(k)
		if err != nil || !ok || got.seq != want.seq || got.kind != want.kind || !bytes.Equal(got.value, want.value) {
			t.Fatalf("get %s = %+v, %v, %v; want %+v", k, got, ok, err, want)
		}
	}
	// The filter's answer for a key, present or not, is what hash/fnv's
	// hashes find in the bits the parent wrote.
	n := uint64(len(r.bloom.bits)) * 8
	for i := 0; i < 3*goldenEntries; i++ {
		k := []byte(fmt.Sprintf("golden%05d", i))
		h1, h2 := fnvBloomHash(k)
		want := true
		for j := uint64(0); j < uint64(r.bloom.k); j++ {
			pos := (h1 + j*h2) % n
			want = want && r.bloom.bits[pos/8]&(1<<(pos%8)) != 0
		}
		if got := r.bloom.MayContain(k); got != want {
			t.Fatalf("bloom answer for %s is %v, the parent's is %v", k, got, want)
		}
		if i%3 == 0 && !want {
			t.Fatalf("false negative for %s", k)
		}
	}
}

// fnvBloomHash is bloomHash as it was written with hash/fnv.
func fnvBloomHash(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	h2 := fnv.New64a()
	h2.Write([]byte{0x9e})
	h2.Write(key)
	return h.Sum64(), h2.Sum64() | 1
}

func TestBloomHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 10000; i++ {
		key := make([]byte, rng.Intn(64))
		rng.Read(key)
		g1, g2 := bloomHash(key)
		if w1, w2 := fnvBloomHash(key); g1 != w1 || g2 != w2 {
			t.Fatalf("bloomHash(%x) = %x, %x; hash/fnv gives %x, %x", key, g1, g2, w1, w2)
		}
	}
}

func TestBloomHashDoesNotAllocate(t *testing.T) {
	key := []byte("key00001234")
	if n := testing.AllocsPerRun(100, func() { bloomHash(key) }); n != 0 {
		t.Fatalf("bloomHash allocates %.0f times", n)
	}
}
