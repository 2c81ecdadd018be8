package baselines

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// conformance exercises the System contract shared by every baseline;
// name is what the test built s as.
func conformance(t *testing.T, name string, s System) {
	t.Helper()
	if err := s.Set("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("k1")
	if err != nil || string(v) != "v1" {
		t.Fatalf("%s get: %q %v", name, v, err)
	}
	if _, err := s.Get("ghost"); err != ErrNotFound {
		t.Fatalf("%s missing key: %v", name, err)
	}
	if err := s.Set("k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("k1")
	if string(v) != "v2" {
		t.Fatalf("%s overwrite: %q", name, v)
	}
	// Bulk + memory accounting.
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 200; i++ {
		s.Set(fmt.Sprintf("bulk%03d", i), val)
	}
	if s.MemBytes() <= 0 && s.DiskBytes() <= 0 {
		t.Fatalf("%s reports no footprint", name)
	}
	// Concurrency smoke.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("c%d-%d", g, i)
				s.Set(k, val)
				if got, err := s.Get(k); err != nil || !bytes.Equal(got, val) {
					t.Errorf("%s concurrent get: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRedisLike(t *testing.T) {
	r, err := NewRedisLike("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conformance(t, "redis", r)
	if r.DiskBytes() != 0 {
		t.Fatal("no-AOF redis should have no disk")
	}
}

func TestRedisLikeMultiThread(t *testing.T) {
	r, err := NewRedisLike("", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conformance(t, "redis-m", r)
}

func TestRedisLikeAOF(t *testing.T) {
	r, err := NewRedisLike(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conformance(t, "redis-aof", r)
	if r.DiskBytes() == 0 {
		t.Fatal("AOF redis should report disk usage")
	}
}

func TestMemcachedLike(t *testing.T) {
	m := NewMemcachedLike(0, 4)
	defer m.Close()
	conformance(t, "memcached-m", m)
}

func TestMemcachedEviction(t *testing.T) {
	m := NewMemcachedLike(8<<10, 1)
	defer m.Close()
	val := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < 100; i++ {
		m.Set(fmt.Sprintf("e%03d", i), val)
	}
	if m.MemBytes() > 9<<10 {
		t.Fatalf("capacity not enforced: %d", m.MemBytes())
	}
	// Newest keys must survive; oldest evicted.
	if _, err := m.Get("e099"); err != nil {
		t.Fatal("newest evicted")
	}
	if _, err := m.Get("e000"); err != ErrNotFound {
		t.Fatal("oldest survived beyond capacity")
	}
}

func TestMemcachedLRUTouchOnGet(t *testing.T) {
	m := NewMemcachedLike(2<<10, 1)
	defer m.Close()
	val := bytes.Repeat([]byte("v"), 200)
	m.Set("keep", val)
	m.Set("drop", val)
	m.Get("keep") // touch
	for i := 0; i < 20; i++ {
		m.Set(fmt.Sprintf("fill%d", i), val)
	}
	// "keep" was touched later than "drop", so "drop" must go first. Both
	// may be gone under heavy fill, but keep must never outlive drop.
	_, errKeep := m.Get("keep")
	_, errDrop := m.Get("drop")
	if errDrop == nil && errKeep == ErrNotFound {
		t.Fatal("LRU inverted: touched key evicted before untouched")
	}
}

func TestMemcachedLowerOverheadThanRedis(t *testing.T) {
	// The fig10 premise: memcached's SC sits below Redis's.
	r, _ := NewRedisLike("", 1)
	defer r.Close()
	m := NewMemcachedLike(0, 4)
	defer m.Close()
	val := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%06d", i)
		r.Set(k, val)
		m.Set(k, val)
	}
	if m.MemBytes() >= r.MemBytes() {
		t.Fatalf("memcached (%d) should use less memory than redis (%d)", m.MemBytes(), r.MemBytes())
	}
}

func TestDragonflyLike(t *testing.T) {
	d := NewDragonflyLike(4)
	defer d.Close()
	conformance(t, "dragonfly-m", d)
}

func TestDragonflyShardIsolation(t *testing.T) {
	d := NewDragonflyLike(4)
	defer d.Close()
	for i := 0; i < 400; i++ {
		d.Set(fmt.Sprintf("iso%04d", i), []byte("v"))
	}
	populated := 0
	for _, sh := range d.shards {
		if sh.eng.Len() > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Fatalf("keys not spread: %d shards populated", populated)
	}
}

func TestCassandraLike(t *testing.T) {
	s, err := NewCassandraLike(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conformance(t, "cassandra", s)
	s.DB().Flush()
	if s.DiskBytes() == 0 {
		t.Fatal("no disk usage after flush")
	}
}

func TestHBaseLike(t *testing.T) {
	s, err := NewHBaseLike(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conformance(t, "hbase", s)
}

func TestPersistentBaselineSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCassandraLike(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Set("durable", []byte("yes"))
	s.Close()
	s2, err := NewCassandraLike(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := s2.Get("durable")
	if err != nil || string(v) != "yes" {
		t.Fatalf("recovery: %q %v", v, err)
	}
}

func TestBuildRegistry(t *testing.T) {
	for _, name := range []string{"redis", "redis-s", "redis-m", "redis-aof", "memcached", "dragonfly", "cassandra", "hbase"} {
		s, err := Build(name, t.TempDir())
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		s.Set("k", []byte("v"))
		if v, err := s.Get("k"); err != nil || string(v) != "v" {
			t.Fatalf("%s roundtrip: %v", name, err)
		}
		s.Close()
	}
	if _, err := Build("oracle", ""); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// TestMemBytesChargeKeysAsWritten pins what RedisLike and DragonflyLike
// report for a fixed fill of keys with long digit runs, which the engine
// packs in its records. The systems they stand in for store keys as
// written, so packing moves neither figure. DragonflyLike's shards are
// engines, so its figure does follow the engine's index: 1 360 252 with
// quarter growth steps, 1 424 508 with eighth steps spread over writes, of
// which 80 640 are the old tables of the ten loaded stripes whose last
// resize is still under way when the fill ends (a pin of the index format,
// as TestLedgerKeyShape is).
func TestMemBytesChargeKeysAsWritten(t *testing.T) {
	r, err := NewRedisLike("", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := NewDragonflyLike(4)
	defer d.Close()
	for i := 0; i < 20_000; i++ {
		key := fmt.Sprintf("user:%012d", i*7919)
		if i%3 == 0 {
			key = fmt.Sprintf("txn:%015d:%d", i, i%10)
		}
		val := bytes.Repeat([]byte{'v'}, 16+i%48)
		for _, s := range []System{r, d} {
			if err := s.Set(key, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := r.MemBytes(), int64(2436412); got != want {
		t.Errorf("redis: MemBytes %d, want %d", got, want)
	}
	if got, want := d.MemBytes(), int64(1424508); got != want {
		t.Errorf("dragonfly-m: MemBytes %d, want %d", got, want)
	}
}
