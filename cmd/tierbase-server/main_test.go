package main

import (
	"strings"
	"testing"

	"tierbase/internal/cache"
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
