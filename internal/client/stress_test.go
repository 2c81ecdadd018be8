package client_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/client"
	"tierbase/internal/server"
)

// TestConcurrentCallers hammers one connection from many goroutines
// mixing Get/Set/Do/Pipeline/MGet against a live server. Every value is
// derived from its key, so any cross-matched reply (a reply delivered to
// the wrong caller) trips an identity assert. Runs under -race in CI,
// including the GOMAXPROCS=1 leg below.
func TestConcurrentCallers(t *testing.T) {
	t.Run("default", concurrentCallers)
	t.Run("gomaxprocs1", func(t *testing.T) {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		concurrentCallers(t)
	})
}

func stressVal(k string) string { return "val-of-" + k }

func concurrentCallers(t *testing.T) {
	s, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 64
	key := func(i int) string { return fmt.Sprintf("stress%03d", i%keys) }
	pairs := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		pairs[key(i)] = stressVal(key(i))
	}
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}

	const goroutines = 24
	ops := 200
	if testing.Short() {
		ops = 40
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...interface{}) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := key(g*31 + i)
				switch i % 5 {
				case 0: // typed Get: identity
					v, err := c.Get(k)
					if err != nil || v != stressVal(k) {
						fail("Get(%s) = %q, %v", k, v, err)
					}
				case 1: // typed Set: always the key-derived value
					if err := c.Set(k, stressVal(k)); err != nil {
						fail("Set(%s): %v", k, err)
					}
				case 2: // raw Do GET
					v, err := c.Do("GET", k)
					if err != nil || v != stressVal(k) {
						fail("Do GET %s = %v, %v", k, v, err)
					}
				case 3: // pipeline: order within the call must hold
					k2 := key(g*31 + i + 7)
					outs, errs := c.Pipeline([][]string{
						{"SET", k, stressVal(k)},
						{"GET", k},
						{"GET", k2},
					})
					if errs[0] != nil || outs[0] != "OK" {
						fail("pipe SET %s: %v %v", k, outs[0], errs[0])
					}
					if errs[1] != nil || outs[1] != stressVal(k) {
						fail("pipe GET %s = %v, %v", k, outs[1], errs[1])
					}
					if errs[2] != nil || outs[2] != stressVal(k2) {
						fail("pipe GET %s = %v, %v", k2, outs[2], errs[2])
					}
				case 4: // explicit MGet batch
					k2 := key(g*31 + i + 13)
					got, err := c.MGet(k, k2)
					if err != nil || got[k] != stressVal(k) || got[k2] != stressVal(k2) {
						fail("MGet(%s,%s) = %v, %v", k, k2, got, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d identity failures", n)
	}
}

// TestCloseRacesInflightCalls: Close fired while calls are mid-flight
// must release every waiter promptly — value or error, never a hang.
func TestCloseRacesInflightCalls(t *testing.T) {
	s, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for round := 0; round < 5; round++ {
		c, err := client.Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Set("race", "v"); err != nil {
			t.Fatal(err)
		}
		const goroutines = 16
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					v, err := c.Get("race")
					if err != nil {
						if !errors.Is(err, client.ErrClosed) && c.Err() == nil {
							t.Errorf("unexpected error with healthy client: %v", err)
						}
						return
					}
					if v != "v" {
						t.Errorf("Get(race) = %q", v)
						return
					}
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		c.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("waiters hung after Close")
		}
	}
}

// TestRoutedSlowNodeDoesNotBlockHealthyRouting: one node's dial hanging
// (simulated by a blackhole address that never accepts) must not stall
// callers routed to a healthy node — the satellite fix for dialing under
// the routing lock.
func TestRoutedSlowNodeDoesNotBlockHealthyRouting(t *testing.T) {
	s, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r := &splitRouter{healthy: s.Addr(), dead: "10.255.255.1:6380"} // non-routable: dial hangs until timeout
	rc := client.NewRouted(r)
	defer rc.Close()

	dead := make(chan error, 1)
	go func() { dead <- rc.Set("dead-key", "v") }()

	// While the dead dial is pending, healthy-node traffic must complete
	// far faster than the 5s dial timeout.
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	if err := rc.Set("ok-key", "v"); err != nil {
		t.Fatalf("healthy set: %v", err)
	}
	if v, err := rc.Get("ok-key"); err != nil || v != "v" {
		t.Fatalf("healthy get: %q %v", v, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("healthy routing blocked %v behind a dead node's dial", d)
	}
	select {
	case err := <-dead:
		if err == nil {
			t.Fatal("dial to blackhole unexpectedly succeeded")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dead-node dial never returned")
	}
}

// splitRouter sends one key to a dead address and everything else to the
// healthy node.
type splitRouter struct{ healthy, dead string }

func (r *splitRouter) AddrFor(key string) string {
	if key == "dead-key" {
		return r.dead
	}
	return r.healthy
}

// TestRoutedRedialsBrokenNode: a node connection that went sticky-broken
// is replaced on the next call instead of failing forever.
func TestRoutedRedialsBrokenNode(t *testing.T) {
	s, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr()
	rc := client.NewRouted(singleRouter(addr))
	defer rc.Close()

	if err := rc.Set("k", "v1"); err != nil {
		t.Fatal(err)
	}
	// Kill the server; the node conn goes sticky-broken on next use.
	s.Close()
	if err := rc.Set("k", "v2"); err == nil {
		t.Fatal("set against a dead server should fail")
	}
	// Restart on the same address (may need a few tries on a busy box).
	var s2 *server.Server
	for i := 0; i < 50; i++ {
		s2, err = server.Start(server.Config{Addr: addr})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()
	// The routed client must discard the broken Client and redial.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = rc.Set("k", "v3"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("routed client never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v, err := rc.Get("k"); err != nil || v != "v3" {
		t.Fatalf("after redial: %q %v", v, err)
	}
}

type singleRouter string

func (r singleRouter) AddrFor(string) string { return string(r) }

// TestRoutedConcurrentDialsKeepOneClient: callers that reach a node before
// any client to it exists each dial it; the first client stored serves them
// all, and the others are closed, so the node is left with one connection
// from this Routed.
func TestRoutedConcurrentDialsKeepOneClient(t *testing.T) {
	s, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rc := client.NewRouted(singleRouter(s.Addr()))
	defer rc.Close()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			key := fmt.Sprintf("k%d", g)
			if err := rc.Set(key, key); err != nil {
				t.Errorf("set %s: %v", key, err)
			}
		}()
	}
	close(start)
	wg.Wait()

	probe, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := probe.Info("overload")
		if err != nil {
			t.Fatal(err)
		}
		if info["connected_clients"] == "2" { // the Routed's one and the probe
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("connected_clients = %s, want the Routed's one and the probe's", info["connected_clients"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got, err := rc.MGet("k0", "k7"); err != nil || got["k0"] != "k0" || got["k7"] != "k7" {
		t.Fatalf("mget after the dial race: %v %v", got, err)
	}
}
