package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tierbase/internal/cache"
	"tierbase/internal/engine"
	"tierbase/internal/stack"
)

// TestTieringFlags: -policy, -dir and -cache-bytes either agree or the
// server refuses to start and says which flag is at fault.
func TestTieringFlags(t *testing.T) {
	for _, c := range []struct {
		policy, dir string
		cacheBytes  int64
		want        cache.Policy
		wantErr     string // a substring; "" = accepted
	}{
		{policy: "cache-only", want: cache.CacheOnly},
		{policy: "cache-only", dir: "/data", want: cache.CacheOnly},
		{policy: "write-through", dir: "/data", want: cache.WriteThrough},
		{policy: "write-back", dir: "/data", cacheBytes: 1 << 20, want: cache.WriteBack},
		{policy: "cache-only", cacheBytes: 1 << 20, wantErr: "-cache-bytes"},
		{policy: "cache-only", dir: "/data", cacheBytes: 1 << 20, wantErr: "-cache-bytes"},
		{policy: "write-through", wantErr: "-dir required"},
		{policy: "write-back", cacheBytes: 1 << 20, wantErr: "-dir required"},
		{policy: "write-around", dir: "/data", wantErr: `unknown policy "write-around"`},
	} {
		got, err := tieringFlags(c.policy, c.dir, c.cacheBytes)
		switch {
		case c.wantErr == "" && (err != nil || got != c.want):
			t.Errorf("-policy %s -dir %q -cache-bytes %d: got %v, %v; want %v", c.policy, c.dir, c.cacheBytes, got, err, c.want)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("-policy %s -dir %q -cache-bytes %d: error %v, want one naming %q", c.policy, c.dir, c.cacheBytes, err, c.wantErr)
		}
	}
}

// TestShardStacksFromFlags: the storage flags give every shard the stack
// they name — policy, per-shard capacity, its own shard%03d directory under
// -dir (so an existing -dir reopens shard by shard), the pre-trained
// compressor and the engine's 16-byte compression threshold.
func TestShardStacksFromFlags(t *testing.T) {
	dir := t.TempDir()
	cfg, err := stackFlags("write-back", dir, 1<<20, "zstd-b", "kv1")
	if err != nil {
		t.Fatal(err)
	}
	eo, err := stack.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := eo.Options.Compressor; c == nil || c.Name() != "deflate" {
		t.Fatalf("compressor %v, want deflate (zstd-b)", c)
	}
	tiers := &shardStacks{cfg: cfg, dir: dir}
	defer func() {
		for _, st := range tiers.stacks {
			st.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		tr, err := tiers.factory(engine.New(eo.Options))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Policy() != cache.WriteBack || tr.CapacityBytes() != 1<<20 {
			t.Fatalf("shard %d: %s, capacity %d", i, tr.Policy(), tr.CapacityBytes())
		}
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard%03d", i))); err != nil {
			t.Fatalf("shard %d directory: %v", i, err)
		}
	}
	if n := len(tiers.stats()); n != 2 {
		t.Fatalf("INFO storage has %d shards, want 2", n)
	}

	payload := func(opts engine.Options, n int) int64 {
		e := engine.New(opts)
		e.Set("k", bytes.Repeat([]byte("a"), n))
		return e.Stats().PayloadBytes
	}
	raw := engine.Options{}
	if payload(eo.Options, 16) >= payload(raw, 16) {
		t.Fatal("a 16-byte value was not compressed")
	}
	if payload(eo.Options, 15) != payload(raw, 15) {
		t.Fatal("a 15-byte value was compressed")
	}
}
