package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tierbase/internal/cache"
	"tierbase/internal/client"
	"tierbase/internal/engine"
	"tierbase/internal/server"
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

// TestNodeStackFromFlags: the storage flags give the node the stack they
// name — policy, capacity, the LSM at -dir itself, the pre-trained
// compressor and the engine's 16-byte compression threshold — and a key
// written before the server closes reads back from -dir after a restart.
func TestNodeStackFromFlags(t *testing.T) {
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
	start := func() (*server.Server, *client.Client, func() error) {
		t.Helper()
		opts := server.Config{Addr: "127.0.0.1:0", EngineOptions: eo.Options}
		closeStorage := wireStorage(&opts, cfg)
		srv, err := server.Start(opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return srv, c, closeStorage
	}

	srv, c, closeStorage := start()
	if err := c.Set("durable", "yes"); err != nil {
		t.Fatal(err)
	}
	for section, want := range map[string]map[string]string{
		"writepath": {"shard0_policy": "write-back"},
		"tiering":   {"shard0_capacity_bytes": "1048576"},
		"storage":   {"storage_shards": "1"},
	} {
		got, err := c.Info(section)
		if err != nil {
			t.Fatal(err)
		}
		for field, v := range want {
			if got[field] != v {
				t.Errorf("INFO %s %s:%q, want %q", section, field, got[field], v)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "wal")); err != nil {
		t.Fatalf("the LSM is not at -dir: %v", err)
	}
	c.Close()
	srv.Close()
	if err := closeStorage(); err != nil {
		t.Fatal(err)
	}

	srv, c, closeStorage = start()
	defer func() {
		c.Close()
		srv.Close()
		closeStorage()
	}()
	if v, err := c.Get("durable"); err != nil || v != "yes" {
		t.Fatalf("GET after restart on -dir: %q, %v", v, err)
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
