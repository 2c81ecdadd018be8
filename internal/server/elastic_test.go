package server

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/client"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/resp"
)

// TestTieredRMWRestartRoundTrip is the durability contract for the
// non-SET mutation routing: read-modify-write and collection outcomes
// must land in the storage tier, so a restart over the same storage
// observes them. (Before the routing, SET c 10 + INCR c read back 10
// after restart under write-back: the INCR only touched the cache tier.)
func TestTieredRMWRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, *client.Client, *lsm.DB) {
		db, err := lsm.Open(lsm.Options{Dir: filepath.Join(dir, "lsm")})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Start(Config{
			Addr: "127.0.0.1:0",
			TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
				return cache.New(cache.Options{
					Policy: cache.WriteBack, Engine: eng, Storage: cache.NewLSMStorage(db),
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return s, c, db
	}

	s, c, db := open()
	mustDo := func(args ...string) interface{} {
		t.Helper()
		v, err := c.Do(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return v
	}
	mustDo("SET", "c", "10")
	if v := mustDo("INCR", "c"); v != int64(11) {
		t.Fatalf("INCR c = %v", v)
	}
	mustDo("SETNX", "nx", "first")
	mustDo("SETNX", "nx", "second") // no-op: must not clobber storage either
	if v := mustDo("INCR", "fresh"); v != int64(1) {
		t.Fatalf("INCR fresh = %v", v)
	}
	mustDo("RPUSH", "l", "a", "b", "c")
	mustDo("LPOP", "l") // pops "a"; storage must hold [b c]
	mustDo("HSET", "h", "f", "hv")
	mustDo("ZADD", "z", "1.5", "m")
	mustDo("SADD", "st", "x", "y")
	mustDo("SREM", "st", "y")

	// Restart: close the server (write-back Close runs a final flush),
	// close the LSM, reopen both over the same directory.
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	s, c, db = open()
	defer func() {
		c.Close()
		s.Close()
		db.Close()
	}()

	if v := mustDo("GET", "c"); v != "11" {
		t.Fatalf("GET c after restart = %v, want 11", v)
	}
	if v := mustDo("GET", "nx"); v != "first" {
		t.Fatalf("GET nx after restart = %v, want first", v)
	}
	if v := mustDo("GET", "fresh"); v != "1" {
		t.Fatalf("GET fresh after restart = %v, want 1", v)
	}
	if v := mustDo("LRANGE", "l", "0", "-1"); fmt.Sprint(v) != "[b c]" {
		t.Fatalf("LRANGE after restart = %v, want [b c]", v)
	}
	if v := mustDo("HGET", "h", "f"); v != "hv" {
		t.Fatalf("HGET after restart = %v", v)
	}
	if v := mustDo("ZSCORE", "z", "m"); v != "1.5" {
		t.Fatalf("ZSCORE after restart = %v", v)
	}
	if v := mustDo("SISMEMBER", "st", "x"); v != int64(1) {
		t.Fatalf("SISMEMBER x after restart = %v", v)
	}
	if v := mustDo("SISMEMBER", "st", "y"); v != int64(0) {
		t.Fatalf("SISMEMBER y after restart = %v (SREM lost)", v)
	}
	// A restored collection key keeps its type: string reads must fail.
	// (Plain GET, not c.Get: the client coalesces Gets into MGET, whose
	// Redis semantics report wrong-typed keys as nil instead of an error.)
	if _, err := c.Do("GET", "l"); err == nil || !strings.Contains(err.Error(), "wrong") {
		t.Fatalf("GET on restored list: err = %v, want wrong-type", err)
	}
	if v := mustDo("TYPE", "l"); v != "list" {
		t.Fatalf("TYPE l after restart = %v", v)
	}
}

// slowStorage delays every read so in-flight commands hold the node's gate
// slot long enough for a connection burst to build a backlog of waiters.
type slowStorage struct {
	cache.Storage
	delay time.Duration
}

func (s *slowStorage) Get(key string) ([]byte, bool, error) {
	time.Sleep(s.delay)
	return s.Storage.Get(key)
}

func (s *slowStorage) BatchGet(keys []string) (map[string][]byte, error) {
	time.Sleep(s.delay)
	return s.Storage.BatchGet(keys)
}

// driveBoost opens conns connections that hammer storage-miss GETs until
// the node's gate reports Boost mode, then stops the load and
// waits for the cooldown back to Single. It fails the test on timeout.
func driveBoost(t *testing.T, s *Server, conns int) {
	t.Helper()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		c, err := client.Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(g int, c *client.Client) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// Unique keys: misses bypass the cache tier and pay the
				// slow storage read, without singleflight collapsing them.
				c.Get(fmt.Sprintf("miss-%d-%d", g, i))
			}
		}(g, c)
	}
	pool := s.pool
	deadline := time.Now().Add(10 * time.Second)
	for pool.Mode() != elastic.Boost {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("pool never boosted: %+v", pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := pool.Stats(); st.Boosts < 1 || st.Workers <= 1 {
		t.Fatalf("boost stats inconsistent: %+v", st)
	}
	stop.Store(true)
	wg.Wait()
	for pool.Mode() != elastic.Single {
		if time.Now().After(deadline) {
			t.Fatalf("pool never cooled down: %+v", pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func elasticTestConfig() Config {
	return Config{
		Addr: "127.0.0.1:0",
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{
				Policy:  cache.WriteThrough,
				Engine:  eng,
				Storage: &slowStorage{Storage: cache.NewMapStorage(), delay: 2 * time.Millisecond},
			})
		},
		Pool: elastic.PoolOptions{MaxWorkers: 4},
	}
}

// TestElasticBoostAndIdle drives a live server through the full elastic
// cycle: idle single-threaded mode, a connection burst that trips the
// backlog threshold into Boost, and the cooldown back to Single once the
// burst subsides (§4.4).
func TestElasticBoostAndIdle(t *testing.T) {
	s, c := startTestServer(t, elasticTestConfig())
	if got := s.pool.Mode(); got != elastic.Single {
		t.Fatalf("idle mode = %v, want single", got)
	}
	driveBoost(t, s, 12)
	// INFO must report the cycle.
	v, err := c.Do("INFO", "server")
	if err != nil {
		t.Fatal(err)
	}
	info := v.(string)
	if !strings.Contains(info, "shard0_mode:single") {
		t.Fatalf("INFO missing cooled-down mode:\n%s", info)
	}
	if !strings.Contains(info, "shard0_boosts:") || !strings.Contains(info, "shard0_shrinks:") {
		t.Fatalf("INFO missing elastic counters:\n%s", info)
	}
}

// TestSingleModeServesConnectionsFairly: the node's gate admits connections
// in arrival order, so one connection's pipeline cannot hold the node.
// While A's 64 pipelined slow GETs execute one by one, B's one GET waits
// for at most the command in progress, and its reply arrives before A's
// last.
func TestSingleModeServesConnectionsFairly(t *testing.T) {
	opts := elasticTestConfig()
	opts.Pool = elastic.PoolOptions{Fixed: 1}
	s, _ := startTestServer(t, opts)
	dial := func() (net.Conn, *bufio.Reader) {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return nc, bufio.NewReader(nc)
	}
	a, ar := dial()
	b, br := dial()
	const window = 64
	var pipeline []byte
	for i := 0; i < window; i++ {
		pipeline = resp.AppendCommand(pipeline, "GET", fmt.Sprintf("a-%d", i))
	}
	if _, err := a.Write(pipeline); err != nil {
		t.Fatal(err)
	}
	var aDone atomic.Bool
	go func() {
		for i := 0; i < window; i++ {
			if _, err := readRawReply(ar); err != nil {
				return
			}
		}
		aDone.Store(true)
	}()
	pool := s.pool
	for pool.Stats().Executed == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := b.Write(resp.AppendCommand(nil, "GET", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := readRawReply(br); err != nil {
		t.Fatal(err)
	}
	if aDone.Load() {
		t.Fatalf("B's reply came after all of A's pipeline: %+v", pool.Stats())
	}
}

// TestElasticBoostSingleProc re-runs the burst cycle with GOMAXPROCS=1:
// the boosted gate and the connection goroutines must all make progress
// on one scheduler thread (no spin that starves the cooldown, no caller
// left waiting for a slot that is never handed on).
func TestElasticBoostSingleProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	s, _ := startTestServer(t, elasticTestConfig())
	driveBoost(t, s, 8)
}

// TestElasticModeChangeStress runs concurrent mixed traffic across
// Single<->Boost transitions — meant to run under -race, where it proves
// command execution is data-race-free while slots open and close. Three
// bursts of eight clients, each followed by a pause longer than the
// pool's 200 ms cooldown, must boost and shrink the pool at least twice.
func TestElasticModeChangeStress(t *testing.T) {
	s, _ := startTestServer(t, Config{
		Addr: "127.0.0.1:0",
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{
				Policy:  cache.WriteBack,
				Engine:  eng,
				Storage: &slowStorage{Storage: cache.NewMapStorage(), delay: 200 * time.Microsecond},
			})
		},
		Pool: elastic.PoolOptions{MaxWorkers: 4},
	})
	const clients = 8
	conns := make([]*client.Client, clients)
	for g := range conns {
		c, err := client.Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[g] = c
	}
	for b := 0; b < 3; b++ {
		var wg sync.WaitGroup
		for g, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 150; i++ {
					key := fmt.Sprintf("k%d-%d", g, i%10)
					switch i % 5 {
					case 0:
						if err := c.Set(key, "v"); err != nil {
							t.Errorf("set: %v", err)
							return
						}
					case 1:
						c.Get(fmt.Sprintf("cold%d-%d-%d", b, g, i))
					case 2:
						if _, err := c.Incr(fmt.Sprintf("ctr%d", g)); err != nil {
							t.Errorf("incr: %v", err)
							return
						}
					case 3:
						c.Do("RPUSH", fmt.Sprintf("l%d", g), "x")
					case 4:
						c.Del(key)
					}
				}
			}()
		}
		wg.Wait()
		time.Sleep(300 * time.Millisecond)
	}
	// The pool saw real transitions (otherwise this stressed nothing).
	if st := s.pool.Stats(); st.Boosts < 2 || st.Shrinks < 2 {
		t.Fatalf("three bursts: want at least 2 boosts and 2 shrinks, got %+v", st)
	}
}
