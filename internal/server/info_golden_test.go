package server

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/client"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
)

var updateInfoGolden = flag.Bool("update", false, "rewrite testdata/info/*.golden from the current renderer")

// infoSections is every argument TestInfoGolden renders INFO with: each
// section alone, then the unfiltered INFO.
var infoSections = []string{"server", "replication", "writepath", "storage", "tiering", "health", "overload", ""}

// volatileInfoFields are the fields whose values depend on timing or on
// the listen port rather than on the commands a test sent. Their values are
// masked as "*" before comparison; names, order and every other value are
// compared byte for byte. A per-shard field is listed without its shardN_
// prefix. tasks is among them because a pool counts a task after the
// caller it woke may already be rendering INFO.
var volatileInfoFields = map[string]bool{
	"tasks":                       true,
	"p99_ns":                      true,
	"max_write_stall_ns":          true,
	"mem_usage_bytes":             true,
	"slowest_client_buffer_bytes": true,
	"master_addr":                 true,
}

var shardPrefix = regexp.MustCompile(`^shard\d+_`)

// maskInfo checks that every INFO line ends in \r\n, masks the volatile
// values and returns the text with plain \n line ends.
func maskInfo(t *testing.T, info string) string {
	t.Helper()
	if info == "" {
		return ""
	}
	if !strings.HasSuffix(info, "\r\n") || strings.Count(info, "\n") != strings.Count(info, "\r\n") {
		t.Fatalf("INFO has a line not ended by \\r\\n:\n%q", info)
	}
	lines := strings.Split(strings.TrimSuffix(info, "\r\n"), "\r\n")
	for i, line := range lines {
		name, _, ok := strings.Cut(line, ":")
		if ok && volatileInfoFields[shardPrefix.ReplaceAllString(name, "")] {
			lines[i] = name + ":*"
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// renderInfoGolden renders every section of infoSections on c, masked, each
// under a "== INFO <section> ==" heading.
func renderInfoGolden(t *testing.T, c *client.Client) string {
	t.Helper()
	var b strings.Builder
	for _, section := range infoSections {
		args := []string{"INFO"}
		if section != "" {
			args = append(args, section)
		}
		v, err := c.Do(args...)
		if err != nil {
			t.Fatalf("INFO %s: %v", section, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", strings.Join(args, " "), maskInfo(t, v.(string)))
	}
	return b.String()
}

// checkInfoGolden compares got with testdata/info/<name>.golden, or writes
// it there under -update.
func checkInfoGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "info", name+".golden")
	if *updateInfoGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}

// goldenWorkload sends the same commands to every deployment: sixteen SETs,
// their GETs, two misses, an overwrite, a DEL, an INCR and an MSET across
// keys.
func goldenWorkload(t *testing.T, c *client.Client) {
	t.Helper()
	for i := 0; i < 16; i++ {
		if err := c.Set(fmt.Sprintf("gk%02d", i), strings.Repeat("v", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, err := c.Get(fmt.Sprintf("gk%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"absent0", "absent1"} {
		if _, err := c.Get(k); err != client.Nil {
			t.Fatalf("GET %s: %v", k, err)
		}
	}
	if err := c.Set("gk03", "overwritten"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Del("gk07"); err != nil || n != 1 {
		t.Fatalf("DEL: %d %v", n, err)
	}
	if _, err := c.Incr("counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("MSET", "m0", "a", "m1", "bb", "m2", "ccc"); err != nil {
		t.Fatal(err)
	}
}

// lsmShards opens one WAL-less LSM per shard the factory is asked for and
// reports their stats in open order, the wiring tierbase-server does.
func lsmShards(t *testing.T, cfg *Config, policy cache.Policy) {
	var mu sync.Mutex
	var dbs []*lsm.DB
	cfg.TieredFactory = func(eng *engine.Engine) (*cache.Tiered, error) {
		db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), DisableWAL: true})
		if err != nil {
			return nil, err
		}
		mu.Lock()
		dbs = append(dbs, db)
		mu.Unlock()
		t.Cleanup(func() { db.Close() })
		return cache.New(cache.Options{
			Policy: policy, Engine: eng, Storage: cache.NewLSMStorage(db),
			CacheCapacityBytes: 1 << 20, FlushInterval: time.Hour,
		})
	}
	cfg.StorageStats = func() []lsm.Stats {
		mu.Lock()
		defer mu.Unlock()
		out := make([]lsm.Stats, len(dbs))
		for i, db := range dbs {
			out[i] = db.Stats()
		}
		return out
	}
}

// TestInfoGolden pins the INFO wire format: section headers, field names,
// their order and every value a fixed command sequence determines, on a
// cache-only server, a 2-shard write-through server over an LSM, and a
// semi-sync write-back master and its replica. Regenerate with
// `go test ./internal/server -run TestInfoGolden -update` and review the
// diff: a changed line is a changed wire format.
func TestInfoGolden(t *testing.T) {
	t.Run("cache-only", func(t *testing.T) {
		_, c := startTestServer(t, Config{})
		goldenWorkload(t, c)
		checkInfoGolden(t, "cache-only", renderInfoGolden(t, c))
	})

	t.Run("write-through", func(t *testing.T) {
		cfg := Config{Shards: 2}
		lsmShards(t, &cfg, cache.WriteThrough)
		_, c := startTestServer(t, cfg)
		goldenWorkload(t, c)
		checkInfoGolden(t, "write-through", renderInfoGolden(t, c))
	})

	t.Run("semi-sync", func(t *testing.T) {
		master, mc := startMaster(t, func(cfg *Config) {
			cfg.Shards = 2
			cfg.Replication.SemiSyncAcks = 1
			lsmShards(t, cfg, cache.WriteBack)
		})
		_, rc := startReplicaOf(t, master, "r1", nil)
		waitFor(t, "replica attached", func() bool {
			return infoField(t, mc, "replication", "connected_replicas") == "1" &&
				infoField(t, rc, "replication", "master_link") == "up"
		})
		goldenWorkload(t, mc)
		head := infoField(t, mc, "replication", "repl_seq")
		waitFor(t, "replica caught up", func() bool {
			return infoField(t, rc, "replication", "last_applied_seq") == head &&
				strings.Contains(infoField(t, mc, "replication", "replica0"), "acked_seq="+head+",")
		})
		for _, sh := range master.shards {
			if err := sh.tiered.FlushDirty(); err != nil {
				t.Fatal(err)
			}
		}
		checkInfoGolden(t, "semi-sync-master", renderInfoGolden(t, mc))
		checkInfoGolden(t, "semi-sync-replica", renderInfoGolden(t, rc))
	})
}
