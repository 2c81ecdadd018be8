package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// --- shard routing ---

func TestShardCountRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	}
	for _, c := range cases {
		e := New(Options{Shards: c.in})
		if got := e.NumShards(); got != c.want {
			t.Errorf("Shards=%d: got %d stripes, want %d", c.in, got, c.want)
		}
	}
}

func TestShardRoutingStable(t *testing.T) {
	e := New(Options{Shards: 16})
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%d", i)
		if e.ShardIndex(k) != e.ShardIndex(k) {
			t.Fatalf("unstable routing for %q", k)
		}
		if e.ShardIndex(k) >= e.NumShards() {
			t.Fatalf("shard index out of range for %q", k)
		}
	}
}

func TestShardRoutingSpreads(t *testing.T) {
	e := New(Options{Shards: 16})
	used := map[int]bool{}
	for i := 0; i < 1000; i++ {
		used[e.ShardIndex(fmt.Sprintf("key%d", i))] = true
	}
	// FNV over 1000 distinct keys must hit essentially every stripe.
	if len(used) < 12 {
		t.Fatalf("keys landed on only %d/16 shards", len(used))
	}
}

func TestOpsRouteAcrossShards(t *testing.T) {
	// The same data must be visible regardless of shard count.
	for _, n := range []int{1, 4, 16} {
		e := New(Options{Shards: n})
		for i := 0; i < 200; i++ {
			e.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
		}
		if e.Len() != 200 {
			t.Fatalf("shards=%d: len %d", n, e.Len())
		}
		for i := 0; i < 200; i++ {
			v, err := e.Get(fmt.Sprintf("k%d", i))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("shards=%d: get k%d = %q, %v", n, i, v, err)
			}
		}
		if st := e.Stats(); st.Keys != 200 || st.Hits != 200 {
			t.Fatalf("shards=%d: stats %+v", n, st)
		}
	}
}

// --- batch operations ---

func TestMGetBasic(t *testing.T) {
	e := New(Options{})
	e.Set("a", []byte("1"))
	e.Set("b", []byte("2"))
	vals, err := e.MGet([]string{"a", "missing", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "1" || vals[1] != nil || string(vals[2]) != "2" {
		t.Fatalf("vals: %q", vals)
	}
	st := e.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMGetEmptyAndEmptyValue(t *testing.T) {
	e := New(Options{})
	if vals, err := e.MGet(nil); err != nil || len(vals) != 0 {
		t.Fatalf("empty MGet: %v %v", vals, err)
	}
	// A present-but-empty value must be distinguishable from absent.
	e.Set("empty", []byte{})
	vals, err := e.MGet([]string{"empty", "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] == nil || len(vals[0]) != 0 {
		t.Fatalf("empty value should be non-nil empty, got %v", vals[0])
	}
	if vals[1] != nil {
		t.Fatalf("absent should be nil, got %q", vals[1])
	}
}

func TestMGetWrongTypeIsNil(t *testing.T) {
	e := New(Options{})
	e.Set("s", []byte("v"))
	e.LPush("l", []byte("x"))
	vals, err := e.MGet([]string{"s", "l"})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "v" || vals[1] != nil {
		t.Fatalf("vals: %q", vals)
	}
}

func TestMGetExpired(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("live", []byte("v"))
	e.Set("dead", []byte("v"))
	e.Expire("dead", time.Second)
	now = now.Add(time.Minute)
	vals, err := e.MGet([]string{"live", "dead"})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] == nil || vals[1] != nil {
		t.Fatalf("vals: %q", vals)
	}
}

func TestMSetBasic(t *testing.T) {
	e := New(Options{})
	err := e.MSet([]KV{
		{Key: "a", Val: []byte("1")},
		{Key: "b", Val: []byte("2")},
		{Key: "c", Val: []byte("3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		if v, err := e.Get(k); err != nil || string(v) != want {
			t.Fatalf("get %s: %q %v", k, v, err)
		}
	}
}

func TestMSetDuplicateLastWins(t *testing.T) {
	e := New(Options{})
	e.MSet([]KV{
		{Key: "k", Val: []byte("first")},
		{Key: "k", Val: []byte("second")},
	})
	if v, _ := e.Get("k"); string(v) != "second" {
		t.Fatalf("got %q", v)
	}
	if e.Len() != 1 {
		t.Fatalf("len %d", e.Len())
	}
}

func TestMSetOverwritesWrongTypeAndClearsTTL(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.LPush("l", []byte("x"))
	e.Set("t", []byte("v"))
	e.Expire("t", time.Second)
	e.MSet([]KV{{Key: "l", Val: []byte("str")}, {Key: "t", Val: []byte("v2")}})
	if e.Type("l") != KindString {
		t.Fatal("MSET must overwrite non-string keys (SET semantics)")
	}
	now = now.Add(time.Minute)
	if !e.Exists("t") {
		t.Fatal("MSET must clear TTL (SET semantics)")
	}
}

func TestBatchDel(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Clock: func() time.Time { return now }})
	e.Set("a", []byte("1"))
	e.Set("b", []byte("2"))
	e.Set("dead", []byte("3"))
	e.Expire("dead", time.Second)
	now = now.Add(time.Minute)
	// Expired keys are removed but not counted as live deletions.
	if n := e.BatchDel([]string{"a", "b", "dead", "missing"}); n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if e.Len() != 0 {
		t.Fatalf("len %d", e.Len())
	}
	if e.MemUsed() != 0 {
		t.Fatalf("mem leak: %d", e.MemUsed())
	}
}

func TestBatchMemAccounting(t *testing.T) {
	e := New(Options{})
	kvs := make([]KV, 100)
	keys := make([]string, 100)
	for i := range kvs {
		keys[i] = fmt.Sprintf("k%d", i)
		kvs[i] = KV{Key: keys[i], Val: make([]byte, 100)}
	}
	e.MSet(kvs)
	if e.MemUsed() < 100*100 {
		t.Fatalf("mem %d too small", e.MemUsed())
	}
	e.BatchDel(keys)
	if e.MemUsed() != 0 {
		t.Fatalf("mem leak after BatchDel: %d", e.MemUsed())
	}
}

func TestCollectExpiredResumesAcrossShards(t *testing.T) {
	now := time.Unix(100, 0)
	e := New(Options{Shards: 8, Clock: func() time.Time { return now }})
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%d", i)
		e.Set(k, []byte("v"))
		e.Expire(k, time.Second)
	}
	now = now.Add(time.Minute)
	// Small budgets must still drain everything over repeated calls: each
	// resumes where the last one stopped.
	total := 0
	for i := 0; i < 100 && total < 400; i++ {
		total += sweepExpired(e, 50)
	}
	if total != 400 {
		t.Fatalf("swept %d, want 400", total)
	}
	if st := e.Stats(); st.Expired != 400 {
		t.Fatalf("expired counter %d", st.Expired)
	}
}

// --- concurrency stress (run with -race) ---

func TestConcurrentShardStress(t *testing.T) {
	e := New(Options{Shards: 8})
	const (
		goroutines = 16
		iters      = 300
		keySpace   = 64
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%keySpace)
				switch (g + i) % 8 {
				case 0:
					e.Set(k, []byte("v"))
				case 1:
					e.Get(k)
				case 2:
					e.Del(k)
				case 3:
					e.IncrBy(fmt.Sprintf("ctr%d", i%4), 1)
				case 4:
					e.Expire(k, time.Millisecond)
				case 5:
					batch := []KV{
						{Key: fmt.Sprintf("k%d", i%keySpace), Val: []byte("b1")},
						{Key: fmt.Sprintf("k%d", (i+17)%keySpace), Val: []byte("b2")},
						{Key: fmt.Sprintf("k%d", (i+31)%keySpace), Val: []byte("b3")},
					}
					e.MSet(batch)
				case 6:
					e.MGet([]string{
						fmt.Sprintf("k%d", i%keySpace),
						fmt.Sprintf("k%d", (i+7)%keySpace),
						fmt.Sprintf("k%d", (i+13)%keySpace),
					})
				case 7:
					e.BatchDel([]string{
						fmt.Sprintf("k%d", (i+3)%keySpace),
						fmt.Sprintf("k%d", (i+11)%keySpace),
					})
				}
				if i%50 == 0 {
					sweepExpired(e, 32)
					e.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if e.MemUsed() < 0 {
		t.Fatal("negative memory accounting after stress")
	}
	e.FlushAll()
	if e.MemUsed() != 0 || e.Len() != 0 {
		t.Fatalf("residue after FlushAll: mem=%d len=%d", e.MemUsed(), e.Len())
	}
}
