package engine

import (
	"fmt"
	"testing"
	"time"
)

func TestBatchExists(t *testing.T) {
	e := New(Options{})
	e.Set("a", []byte("1"))
	e.Set("empty", []byte{})
	if _, err := e.RPush("list", []byte("x")); err != nil {
		t.Fatal(err)
	}
	e.Set("ttl", []byte("v"))
	expire(e, "ttl", -time.Second) // already expired
	got := e.BatchExists([]string{"a", "empty", "list", "ttl", "nope"})
	want := []bool{true, true, true, false, false}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("BatchExists[%d] = %v, want %v", i, got[i], w)
		}
	}
	// Probing must not disturb the data.
	if v, err := e.Get("a"); err != nil || string(v) != "1" {
		t.Fatalf("probe mutated data: %q %v", v, err)
	}
}

func TestBatchDelDuplicates(t *testing.T) {
	e := New(Options{})
	e.Set("a", []byte("1"))
	e.Set("b", []byte("2"))
	if n := e.BatchDel([]string{"a", "nope", "b", "a"}); n != 2 { // a duplicate counts once
		t.Fatalf("BatchDel = %d, want 2", n)
	}
	if e.Len() != 0 {
		t.Fatalf("%d keys left", e.Len())
	}
}

func TestShardMemUsedSumsToMemUsed(t *testing.T) {
	e := New(Options{})
	for i := 0; i < 256; i++ {
		e.Set(fmt.Sprintf("k%03d", i), []byte("0123456789"))
	}
	var sum int64
	for i := 0; i < e.NumShards(); i++ {
		sum += e.ShardMemUsed(i)
	}
	if total := e.MemUsed(); sum != total {
		t.Fatalf("per-shard sum %d != MemUsed %d", sum, total)
	}
	// ShardIndex must agree with where the bytes landed.
	e2 := New(Options{})
	e2.Set("probe", []byte("v"))
	si := e2.ShardIndex("probe")
	if e2.ShardMemUsed(si) == 0 {
		t.Fatalf("ShardIndex(probe)=%d holds no bytes", si)
	}
}
