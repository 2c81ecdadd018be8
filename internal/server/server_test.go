package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tierbase/internal/cache"
	"tierbase/internal/client"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/wal"
)

func startTestServer(t *testing.T, opts Config) (*Server, *client.Client) {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	s, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestPingEcho(t *testing.T) {
	_, c := startTestServer(t, Config{})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do("ECHO", "hello")
	if err != nil || v != "hello" {
		t.Fatalf("echo: %v %v", v, err)
	}
}

func TestStringCommands(t *testing.T) {
	_, c := startTestServer(t, Config{})
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil || v != "v" {
		t.Fatalf("get: %q %v", v, err)
	}
	if _, err := c.Get("missing"); err != client.Nil {
		t.Fatalf("missing: %v", err)
	}
	n, err := c.Del("k", "missing")
	if err != nil || n != 1 {
		t.Fatalf("del: %d %v", n, err)
	}
	c.Set("u", "v")
	if n, err := c.Do("UNLINK", "u", "missing"); err != nil || n != int64(1) {
		t.Fatalf("unlink: %d %v", n, err)
	}
	// SETNX
	v2, _ := c.Do("SETNX", "nx", "a")
	if v2.(int64) != 1 {
		t.Fatal("setnx first")
	}
	v2, _ = c.Do("SETNX", "nx", "b")
	if v2.(int64) != 0 {
		t.Fatal("setnx second")
	}
	// EXISTS / TYPE
	v2, _ = c.Do("EXISTS", "nx")
	if v2.(int64) != 1 {
		t.Fatal("exists")
	}
	tp, _ := c.Do("TYPE", "nx")
	if tp != "string" {
		t.Fatalf("type %v", tp)
	}
}

func TestCounters(t *testing.T) {
	_, c := startTestServer(t, Config{})
	n, err := c.Do("INCR", "ctr")
	if err != nil || n != int64(1) {
		t.Fatalf("incr: %d %v", n, err)
	}
	v, _ := c.Do("INCRBY", "ctr", "10")
	if v.(int64) != 11 {
		t.Fatalf("incrby: %v", v)
	}
	v, _ = c.Do("DECR", "ctr")
	if v.(int64) != 10 {
		t.Fatalf("decr: %v", v)
	}
	v, _ = c.Do("DECRBY", "ctr", "5")
	if v.(int64) != 5 {
		t.Fatalf("decrby: %v", v)
	}
	if _, err := c.Do("INCRBY", "ctr", "junk"); err == nil {
		t.Fatal("junk delta accepted")
	}
}

// TestCountersRefuseOutOfRange: a stored value past int64 is not an
// integer, and a step past either end of int64 is refused with the
// overflow error and leaves the value as it was, as Redis does.
func TestCountersRefuseOutOfRange(t *testing.T) {
	_, c := startTestServer(t, Config{})
	for _, tc := range []struct {
		start string
		cmd   []string
		want  string
	}{
		{"99999999999999999999", []string{"INCR", "n"}, "not an integer"},
		{"9223372036854775807", []string{"INCR", "n"}, "overflow"},
		{"-9223372036854775807", []string{"DECRBY", "n", "2"}, "overflow"},
		{"0", []string{"DECRBY", "n", "-9223372036854775808"}, "overflow"},
		{"1", []string{"INCRBY", "n", "9223372036854775807"}, "overflow"},
	} {
		if err := c.Set("n", tc.start); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Do(tc.cmd...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v on %s: %v, %v; want an error containing %q", tc.cmd, tc.start, v, err, tc.want)
		}
		if v, err := c.Get("n"); err != nil || v != tc.start {
			t.Fatalf("refused %v changed %s to %q (%v)", tc.cmd, tc.start, v, err)
		}
	}
	// DECR reaches MinInt64 and stores its digits.
	c.Set("n", "-9223372036854775807")
	if v, err := c.Do("DECR", "n"); err != nil || v != int64(math.MinInt64) {
		t.Fatalf("DECR to MinInt64: %v, %v", v, err)
	}
	if v, err := c.Get("n"); err != nil || v != "-9223372036854775808" {
		t.Fatalf("MinInt64 stored as %q (%v)", v, err)
	}
}

func TestCASCommand(t *testing.T) {
	_, c := startTestServer(t, Config{})
	c.Set("k", "v1")
	ok, err := c.Do("CAS", "k", "v1", "v2")
	if err != nil || ok != int64(1) {
		t.Fatalf("cas: %v %v", ok, err)
	}
	ok, err = c.Do("CAS", "k", "v1", "v3")
	if err != nil || ok != int64(0) {
		t.Fatalf("stale cas: %v %v", ok, err)
	}
	v, _ := c.Get("k")
	if v != "v2" {
		t.Fatalf("value %q", v)
	}
}

func TestTTLCommands(t *testing.T) {
	_, c := startTestServer(t, Config{})
	c.Set("k", "v")
	v, _ := c.Do("EXPIRE", "k", "100")
	if v.(int64) != 1 {
		t.Fatal("expire")
	}
	ttl, _ := c.Do("TTL", "k")
	if ttl.(int64) < 99 || ttl.(int64) > 100 {
		t.Fatalf("ttl %v", ttl)
	}
	v, _ = c.Do("PERSIST", "k")
	if v.(int64) != 1 {
		t.Fatal("persist")
	}
	ttl, _ = c.Do("TTL", "k")
	if ttl.(int64) != -1 {
		t.Fatalf("ttl after persist %v", ttl)
	}
	ttl, _ = c.Do("TTL", "ghost")
	if ttl.(int64) != -2 {
		t.Fatalf("ttl of missing %v", ttl)
	}
}

func TestListCommands(t *testing.T) {
	_, c := startTestServer(t, Config{})
	c.Do("RPUSH", "l", "a", "b", "c")
	v, _ := c.Do("LLEN", "l")
	if v.(int64) != 3 {
		t.Fatalf("llen %v", v)
	}
	arr, err := c.Do("LRANGE", "l", "0", "-1")
	if err != nil {
		t.Fatal(err)
	}
	vals := arr.([]interface{})
	if len(vals) != 3 || vals[0] != "a" || vals[2] != "c" {
		t.Fatalf("lrange %v", vals)
	}
	v, _ = c.Do("LPOP", "l")
	if v != "a" {
		t.Fatalf("lpop %v", v)
	}
	v, _ = c.Do("RPOP", "l")
	if v != "c" {
		t.Fatalf("rpop %v", v)
	}
}

func TestSetCommands(t *testing.T) {
	_, c := startTestServer(t, Config{})
	v, _ := c.Do("SADD", "s", "x", "y", "x")
	if v.(int64) != 2 {
		t.Fatalf("sadd %v", v)
	}
	v, _ = c.Do("SISMEMBER", "s", "x")
	if v.(int64) != 1 {
		t.Fatal("sismember")
	}
	v, _ = c.Do("SCARD", "s")
	if v.(int64) != 2 {
		t.Fatal("scard")
	}
	arr, _ := c.Do("SMEMBERS", "s")
	if len(arr.([]interface{})) != 2 {
		t.Fatalf("smembers %v", arr)
	}
	v, _ = c.Do("SREM", "s", "x")
	if v.(int64) != 1 {
		t.Fatal("srem")
	}
}

func TestZSetCommands(t *testing.T) {
	_, c := startTestServer(t, Config{})
	c.Do("ZADD", "z", "2", "beta")
	c.Do("ZADD", "z", "1", "alpha")
	v, _ := c.Do("ZSCORE", "z", "alpha")
	if v != "1" {
		t.Fatalf("zscore %v", v)
	}
	arr, _ := c.Do("ZRANGE", "z", "0", "-1", "WITHSCORES")
	vals := arr.([]interface{})
	if len(vals) != 4 || vals[0] != "alpha" || vals[1] != "1" {
		t.Fatalf("zrange %v", vals)
	}
	v, _ = c.Do("ZCARD", "z")
	if v.(int64) != 2 {
		t.Fatal("zcard")
	}
	v, _ = c.Do("ZREM", "z", "alpha")
	if v.(int64) != 1 {
		t.Fatal("zrem")
	}
	if _, err := c.Do("ZSCORE", "z", "alpha"); err != client.Nil {
		t.Fatalf("zscore removed: %v", err)
	}
}

// TestZAddRefusesNaN: ParseFloat reads "nan", and a NaN score has no place
// in a sorted set's order, so ZADD answers it as Redis does and stores
// nothing.
func TestZAddRefusesNaN(t *testing.T) {
	_, c := startTestServer(t, Config{})
	c.Do("ZADD", "z", "1", "a")
	for _, score := range []string{"nan", "NaN", "-nan"} {
		if _, err := c.Do("ZADD", "z", score, "n"); err == nil || !strings.Contains(err.Error(), "not a valid float") {
			t.Errorf("ZADD z %s n: %v", score, err)
		}
	}
	if arr, _ := c.Do("ZRANGE", "z", "0", "-1"); len(arr.([]interface{})) != 1 {
		t.Errorf("ZRANGE after refused NaNs: %v", arr)
	}
}

func TestHashCommands(t *testing.T) {
	_, c := startTestServer(t, Config{})
	v, _ := c.Do("HSET", "h", "f1", "v1")
	if v.(int64) != 1 {
		t.Fatal("hset new")
	}
	c.Do("HSET", "h", "f2", "v2")
	v, _ = c.Do("HGET", "h", "f1")
	if v != "v1" {
		t.Fatalf("hget %v", v)
	}
	v, _ = c.Do("HLEN", "h")
	if v.(int64) != 2 {
		t.Fatal("hlen")
	}
	arr, _ := c.Do("HGETALL", "h")
	if len(arr.([]interface{})) != 4 {
		t.Fatalf("hgetall %v", arr)
	}
	v, _ = c.Do("HDEL", "h", "f1")
	if v.(int64) != 1 {
		t.Fatal("hdel")
	}
}

func TestAdminCommands(t *testing.T) {
	_, c := startTestServer(t, Config{})
	c.Set("a", "1")
	c.Set("b", "2")
	v, _ := c.Do("DBSIZE")
	if v.(int64) != 2 {
		t.Fatalf("dbsize %v", v)
	}
	info, err := c.Do("INFO")
	if err != nil || !strings.Contains(info.(string), "shards:1") {
		t.Fatalf("info: %v %v", info, err)
	}
	// mem_bytes splits into the user's bytes (two 1-byte keys, two 1-byte
	// values) and everything the engine spends to hold them.
	mem, _ := strconv.Atoi(infoField(t, c, "server", "mem_bytes"))
	payload, _ := strconv.Atoi(infoField(t, c, "server", "mem_payload_bytes"))
	overhead, _ := strconv.Atoi(infoField(t, c, "server", "mem_overhead_bytes"))
	if payload != 4 || overhead <= 0 || payload+overhead != mem {
		t.Fatalf("mem_bytes %d = payload %d + overhead %d: want payload 4, overhead > 0", mem, payload, overhead)
	}
	// The overhead is two header bytes a record and the index tables: one of
	// the smallest in each of the two stripes the keys land in.
	if index, _ := strconv.Atoi(infoField(t, c, "server", "mem_index_bytes")); index != overhead-4 || index >= 2*100 {
		t.Fatalf("mem_index_bytes %d of mem_overhead_bytes %d: want all but 4 bytes, under 100 a table", index, overhead)
	}
	// mem_free_bytes is the slab page bytes holding no record, beside
	// mem_bytes: two records in two 16 KiB pages leave nearly all of them.
	free, _ := strconv.Atoi(infoField(t, c, "server", "mem_free_bytes"))
	if pages := 2 * 16 << 10; free <= pages-64 || free >= pages {
		t.Fatalf("mem_free_bytes %d beside mem_bytes %d: want the rest of two 16 KiB pages", free, mem)
	}
	c.Do("FLUSHALL")
	v, _ = c.Do("DBSIZE")
	if v.(int64) != 0 {
		t.Fatal("flushall")
	}
	if free := infoField(t, c, "server", "mem_free_bytes"); free != "0" {
		t.Fatalf("mem_free_bytes %s after FLUSHALL: pages should be back with the heap", free)
	}
}

func TestUnknownAndMalformed(t *testing.T) {
	_, c := startTestServer(t, Config{})
	if _, err := c.Do("NOPE", "k"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := c.Do("SET", "k"); err == nil {
		t.Fatal("arity not checked")
	}
	if _, err := c.Do("GET"); err == nil {
		t.Fatal("missing key accepted")
	}
}

func TestPipelining(t *testing.T) {
	_, c := startTestServer(t, Config{})
	cmds := make([][]string, 100)
	for i := range cmds {
		cmds[i] = []string{"SET", fmt.Sprintf("p%03d", i), "v"}
	}
	outs, errs := c.Pipeline(cmds)
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("pipeline %d: %v", i, errs[i])
		}
	}
	v, _ := c.Do("DBSIZE")
	if v.(int64) != 100 {
		t.Fatalf("dbsize %v", v)
	}
}

func TestServerWithTieredBackend(t *testing.T) {
	stor := cache.NewMapStorage()
	opts := Config{
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteThrough, Engine: eng, Storage: stor})
		},
	}
	_, c := startTestServer(t, opts)
	if err := c.Set("durable", "yes"); err != nil {
		t.Fatal(err)
	}
	// Write-through: already in storage.
	v, ok, err := stor.Get("durable")
	if err != nil || !ok || string(v) != "yes" {
		t.Fatalf("storage: %q %v %v", v, ok, err)
	}
	// Read of a storage-only key goes through the miss path.
	stor.Put("cold", []byte("brr"))
	got, err := c.Get("cold")
	if err != nil || got != "brr" {
		t.Fatalf("cold get: %q %v", got, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%dk%d", g, i)
				if err := c.Set(k, "v"); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				if v, err := c.Get(k); err != nil || v != "v" {
					t.Errorf("get: %q %v", v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Latency.Count(); n < 4*200*2 {
		t.Fatalf("latency histogram counted %d commands, want at least %d", n, 4*200*2)
	}
	if s.Latency.Max() == 0 {
		t.Fatal("latency histogram empty")
	}
}

func TestBinarySafeValues(t *testing.T) {
	_, c := startTestServer(t, Config{})
	weird := "has\r\nnewlines\x00and\x01bytes"
	if err := c.Set("bin", weird); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("bin")
	if err != nil || v != weird {
		t.Fatalf("binary roundtrip: %q %v", v, err)
	}
}

func TestMGetMSet(t *testing.T) {
	_, c := startTestServer(t, Config{})
	if v, err := c.Do("MSET", "a", "1", "b", "2", "c", "3"); err != nil || v != "OK" {
		t.Fatalf("mset: %v %v", v, err)
	}
	// MGET mixes present, absent and wrong-typed keys.
	c.Do("LPUSH", "list", "x")
	v, err := c.Do("MGET", "a", "missing", "b", "list", "c")
	if err != nil {
		t.Fatal(err)
	}
	arr, ok := v.([]interface{})
	if !ok || len(arr) != 5 {
		t.Fatalf("mget reply: %#v", v)
	}
	want := []interface{}{"1", nil, "2", nil, "3"}
	for i := range want {
		if arr[i] != want[i] {
			t.Fatalf("mget[%d] = %#v, want %#v", i, arr[i], want[i])
		}
	}
	// Arity errors.
	if _, err := c.Do("MSET", "odd", "1", "stray"); err == nil {
		t.Fatal("odd MSET arity should error")
	}
	if _, err := c.Do("MGET"); err == nil {
		t.Fatal("empty MGET should error")
	}
}

func TestMGetMSetTiered(t *testing.T) {
	stor := cache.NewMapStorage()
	stor.Put("cold", []byte("from-storage"))
	_, c := startTestServer(t, Config{
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteThrough, Engine: eng, Storage: stor})
		},
	})
	if _, err := c.Do("MSET", "x", "1", "y", "2"); err != nil {
		t.Fatal(err)
	}
	// Writes must reach the storage tier through BatchPut.
	if v, ok, err := stor.Get("x"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("storage x: %q %v %v", v, ok, err)
	}
	// MGET must pull storage-resident keys the cache has never seen.
	got, err := c.MGet("x", "cold", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if got["x"] != "1" || got["cold"] != "from-storage" {
		t.Fatalf("mget: %v", got)
	}
	if _, ok := got["nope"]; ok {
		t.Fatal("absent key should be omitted")
	}
}

// TestDelCountsStorageOnlyKeys: a key evicted from (or never admitted to)
// the cache tier but present in storage must still count in the DEL reply.
func TestDelCountsStorageOnlyKeys(t *testing.T) {
	stor := cache.NewMapStorage()
	stor.Put("cold1", []byte("v"))
	stor.Put("cold2", []byte("v"))
	_, c := startTestServer(t, Config{
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteThrough, Engine: eng, Storage: stor})
		},
	})
	if err := c.Set("warm", "v"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Del("warm", "cold1", "cold2", "nope")
	if err != nil || n != 3 {
		t.Fatalf("del: %d %v, want 3", n, err)
	}
	if stor.Len() != 0 {
		t.Fatalf("storage still holds %d keys", stor.Len())
	}
	if _, err := c.Get("cold1"); err != client.Nil {
		t.Fatalf("cold1 still readable: %v", err)
	}
}

// TestEmptyValueColdReadRESP: SET k "" must survive a cache-tier drop
// and come back as the empty string (not nil) once re-read through
// storage. The cache tier is dropped directly on the engine — FLUSHALL
// now (correctly) clears storage too, so it can't play cache-evictor.
func TestEmptyValueColdReadRESP(t *testing.T) {
	stor := cache.NewMapStorage()
	srv, c := startTestServer(t, Config{
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteThrough, Engine: eng, Storage: stor})
		},
	})
	dropCache := func() { srv.eng.FlushAll() }
	if err := c.Set("e", ""); err != nil {
		t.Fatal(err)
	}
	dropCache()
	v, err := c.Get("e")
	if err != nil || v != "" {
		t.Fatalf("cold empty read: %q %v (want present empty)", v, err)
	}
	if _, err := c.Get("never-set"); err != client.Nil {
		t.Fatalf("absent key: %v", err)
	}
	// Batch path agrees: present-empty is a bulk "", absent is nil.
	dropCache()
	arr, err := c.Do("MGET", "e", "never-set")
	if err != nil {
		t.Fatal(err)
	}
	vals := arr.([]interface{})
	if vals[0] != "" || vals[1] != nil {
		t.Fatalf("cold MGET: %#v", vals)
	}
}

// TestEmptyCollectionElementsRESP: an empty list element or hash value is
// present, so it reads back as the empty string, not nil, while resident,
// after a cache-tier drop reloads it from its stored blob, and when popped.
func TestEmptyCollectionElementsRESP(t *testing.T) {
	stor := cache.NewMapStorage()
	srv, c := startTestServer(t, Config{
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteThrough, Engine: eng, Storage: stor})
		},
	})
	for _, cmd := range [][]string{{"RPUSH", "l", ""}, {"HSET", "h", "f", ""}} {
		if _, err := c.Do(cmd...); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
	reads := func(when string) {
		t.Helper()
		if v, err := c.Do("LRANGE", "l", "0", "-1"); err != nil || fmt.Sprintf("%#v", v) != `[]interface {}{""}` {
			t.Fatalf("%s LRANGE: %#v %v", when, v, err)
		}
		if v, err := c.Do("HGET", "h", "f"); err != nil || v != "" {
			t.Fatalf("%s HGET: %#v %v", when, v, err)
		}
		if v, err := c.Do("HGETALL", "h"); err != nil || fmt.Sprintf("%#v", v) != `[]interface {}{"f", ""}` {
			t.Fatalf("%s HGETALL: %#v %v", when, v, err)
		}
	}
	reads("resident")
	srv.eng.FlushAll() // drop the cache tier; storage keeps the blobs
	reads("reloaded")
	if v, err := c.Do("LPOP", "l"); err != nil || v != "" {
		t.Fatalf("LPOP: %#v %v", v, err)
	}
	if v, _ := c.Do("EXISTS", "l"); v != int64(0) {
		t.Fatalf("popped-empty list still exists: %v", v)
	}
}

// TestInfoWritePathSection: INFO exposes the write-path section (the
// write-back flush and backpressure counters) and supports section filtering.
func TestInfoWritePathSection(t *testing.T) {
	stor := cache.NewMapStorage()
	opts := Config{
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteBack, Engine: eng, Storage: stor})
		},
	}
	_, c := startTestServer(t, opts)
	for i := 0; i < 8; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	full, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Server", "# WritePath", "tiered_shards:1",
		"flush_rounds:", "flushed_entries:",
		"backpressure_waits:", "dirty_entries:",
		"shard0_policy:write-back"} {
		if !strings.Contains(full.(string), want) {
			t.Fatalf("INFO missing %q in:\n%s", want, full)
		}
	}
	// Section filter: only the requested section renders.
	wp, err := c.Do("INFO", "writepath")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wp.(string), "# WritePath") || strings.Contains(wp.(string), "# Server") {
		t.Fatalf("INFO writepath filtering broken:\n%s", wp)
	}
	srv, err := c.Do("INFO", "server")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(srv.(string), "# Server") || strings.Contains(srv.(string), "# WritePath") {
		t.Fatalf("INFO server filtering broken:\n%s", srv)
	}
}

// TestInfoWritePathCacheOnly: without a tiered backend the section still
// renders (tiered_shards:0) instead of erroring.
func TestInfoWritePathCacheOnly(t *testing.T) {
	_, c := startTestServer(t, Config{})
	wp, err := c.Do("INFO", "writepath")
	if err != nil || !strings.Contains(wp.(string), "tiered_shards:0") {
		t.Fatalf("cache-only writepath: %v %v", wp, err)
	}
}

// TestInfoTieredShardsReplicatedCacheOnly: tiered_shards counts a node
// with a storage tier, so a cache-only node reports 0 whether or not it
// replicates.
func TestInfoTieredShardsReplicatedCacheOnly(t *testing.T) {
	_, c := startMaster(t, nil)
	for _, section := range []string{"writepath", "tiering"} {
		if got := infoField(t, c, section, "tiered_shards"); got != "0" {
			t.Fatalf("INFO %s on a replicated cache-only node: tiered_shards:%q, want 0", section, got)
		}
	}
}

// TestInfoStorageSection: INFO exposes the LSM counters (flushes,
// compactions, immutable backlog, level shape, write bytes) and supports
// section filtering, like INFO writepath.
func TestInfoStorageSection(t *testing.T) {
	var opts Config
	lsmNode(t, &opts, cache.WriteThrough)
	_, c := startTestServer(t, opts)
	for i := 0; i < 8; i++ {
		if err := c.Set(fmt.Sprintf("sk%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	full, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Storage", "storage_shards:1",
		"shard0_flushes:", "shard0_compactions:", "shard0_immutables:",
		"shard0_write_bytes:", "shard0_level_files:", "shard0_level_bytes:",
		"shard0_multigets:", "shard0_moves:", "shard0_flush_bytes:",
		"shard0_compaction_bytes:"} {
		if !strings.Contains(full.(string), want) {
			t.Fatalf("INFO missing %q in:\n%s", want, full)
		}
	}
	// Section filter: only the requested section renders.
	st, err := c.Do("INFO", "storage")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.(string), "# Storage") || strings.Contains(st.(string), "# Server") ||
		strings.Contains(st.(string), "# WritePath") {
		t.Fatalf("INFO storage filtering broken:\n%s", st)
	}
	// Write volume must have reached the LSM tier (write-through).
	if strings.Contains(st.(string), "shard0_write_bytes:0\r\n") {
		t.Fatalf("no write bytes reached storage:\n%s", st)
	}
}

// TestInfoFieldsTheLedgerReads: every INFO field benchmark/e2e.go and
// benchmark/proc.go read is rendered by the deployment they read it from (a
// write-back master over an LSM with one replica), so that renaming one
// fails here and not in the next ledger run, where a missing field reads as
// zero. coalesced_writes is left out: the ledger still asks for it, and
// nothing has rendered it since the write-through queues went.
func TestInfoFieldsTheLedgerReads(t *testing.T) {
	db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	master, mc := startMaster(t, func(cfg *Config) {
		cfg.Shards = 1
		cfg.TieredFactory = func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteBack, Engine: eng, Storage: cache.NewLSMStorage(db)})
		}
		cfg.StorageStats = func() []lsm.Stats { return []lsm.Stats{db.Stats()} }
	})
	_, rc := startReplicaOf(t, master, "r1", nil)
	if err := mc.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica link", func() bool { return infoField(t, rc, "replication", "master_link") == "up" })
	for _, f := range []struct {
		node           *client.Client
		section, field string
	}{
		{mc, "server", "mem_bytes"},
		{mc, "server", "keys"},
		{mc, "server", "shard0_workers"},
		{mc, "server", "shard0_queue_depth"},
		{mc, "server", "shard0_boosts"},
		{mc, "writepath", "flush_rounds"},
		{mc, "writepath", "flushed_entries"},
		{mc, "writepath", "backpressure_waits"},
		{mc, "writepath", "dirty_entries"},
		{mc, "storage", "shard0_flushes"},
		{mc, "storage", "shard0_compactions"},
		{mc, "storage", "shard0_immutables"},
		{mc, "storage", "shard0_write_bytes"},
		{mc, "storage", "shard0_level_files"},
		{mc, "replication", "connected_replicas"},
		{mc, "replication", "repl_seq"},
		{mc, "replication", "replica0"},
		{rc, "server", "mem_bytes"},
		{rc, "server", "keys"},
		{rc, "replication", "master_link"},
		{rc, "replication", "last_applied_seq"},
	} {
		if infoField(t, f.node, f.section, f.field) == "" {
			t.Errorf("INFO %s renders no %s", f.section, f.field)
		}
	}
	if lag := infoField(t, mc, "replication", "replica0"); !strings.Contains(lag, "ack_lag=") {
		t.Errorf("replica0 line %q has no ack_lag=", lag)
	}
}

// TestInfoStorageCacheOnly: without wired storage stats the section
// renders storage_shards:0 instead of erroring.
func TestInfoStorageCacheOnly(t *testing.T) {
	_, c := startTestServer(t, Config{})
	st, err := c.Do("INFO", "storage")
	if err != nil || !strings.Contains(st.(string), "storage_shards:0") {
		t.Fatalf("cache-only storage section: %v %v", st, err)
	}
}

// TestInfoTieringSection: INFO exposes the cache-tiering section — the
// budget, the bytes resident against it and the cache tier's counters — and
// supports section filtering.
func TestInfoTieringSection(t *testing.T) {
	stor := cache.NewMapStorage()
	opts := Config{
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{
				Policy: cache.WriteThrough, Engine: eng, Storage: stor,
				CacheCapacityBytes: 64 << 10,
			})
		},
	}
	_, c := startTestServer(t, opts)
	for i := 0; i < 8; i++ {
		if err := c.Set(fmt.Sprintf("tk%d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(fmt.Sprintf("tk%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Tiering", "tiered_shards:1",
		"shard0_capacity_bytes:65536", "shard0_resident_bytes:", "shard0_requests:", "shard0_hits:",
		"shard0_misses:", "shard0_evictions:0", "shard0_shared_fetches:0", "shard0_miss_ratio:"} {
		if !strings.Contains(full.(string), want) {
			t.Fatalf("INFO missing %q in:\n%s", want, full)
		}
	}
	// Section filter: only the requested section renders.
	ti, err := c.Do("INFO", "tiering")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ti.(string), "# Tiering") || strings.Contains(ti.(string), "# Server") ||
		strings.Contains(ti.(string), "# WritePath") {
		t.Fatalf("INFO tiering filtering broken:\n%s", ti)
	}
	// The counters are the cache tier's own: 8 SETs and 8 GET hits.
	requests := infoField(t, c, "tiering", "shard0_requests")
	hits := infoField(t, c, "tiering", "shard0_hits")
	if requests != "16" || hits != "8" {
		t.Fatalf("requests=%s hits=%s, want 16 and 8:\n%s", requests, hits, ti)
	}
	if strings.Contains(ti.(string), "_stripe_") || strings.Contains(ti.(string), "rebalance") {
		t.Fatalf("INFO tiering still renders per-stripe budget or rebalancer fields:\n%s", ti)
	}
}

// TestInfoTieringCacheOnly: without a tiered backend the section renders
// tiered_shards:0 instead of erroring.
func TestInfoTieringCacheOnly(t *testing.T) {
	_, c := startTestServer(t, Config{})
	ti, err := c.Do("INFO", "tiering")
	if err != nil || !strings.Contains(ti.(string), "tiered_shards:0") {
		t.Fatalf("cache-only tiering section: %v %v", ti, err)
	}
}
