package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/cluster"
)

func TestParseReplyErrorTyped(t *testing.T) {
	err := parseReplyError("MOVED 42 127.0.0.1:7002")
	var mv *MovedError
	if !errors.As(err, &mv) || mv.Slot != 42 || mv.Addr != "127.0.0.1:7002" {
		t.Fatalf("MOVED parse: %#v", err)
	}
	if err.Error() != "MOVED 42 127.0.0.1:7002" {
		t.Fatalf("MOVED text round trip: %q", err.Error())
	}

	// A TierBase server never sends -ASK (slots do not migrate live), so it is a
	// plain server error like any other.
	for _, s := range []string{"ERR unknown command 'FOO'", "ASK 7 127.0.0.1:7003"} {
		err = parseReplyError(s)
		if errors.As(err, &mv) {
			t.Fatalf("plain error misparsed as redirect: %#v", err)
		}
		if err.Error() != s {
			t.Fatalf("plain error text: %q", err.Error())
		}
	}

	// Malformed redirects stay plain errors rather than panicking or
	// producing a bogus address.
	for _, s := range []string{"MOVED", "MOVED 42", "MOVED x y"} {
		if e := parseReplyError(s); errors.As(e, &mv) {
			t.Fatalf("malformed %q parsed as redirect", s)
		}
	}
}

// fixedRouter routes every key to one address.
type fixedRouter struct{ addr string }

func (r fixedRouter) AddrFor(string) string { return r.addr }

// swapRouter routes every key to an atomically swappable address —
// a stand-in for a routing table that a refresh repoints.
type swapRouter struct{ addr atomic.Value }

func (r *swapRouter) AddrFor(string) string { return r.addr.Load().(string) }

// movedHook makes a stub answer -MOVED to target for any command that
// touches key k (SET/MSET/GET/MGET — coalesced shapes included).
func movedHook(k, target string) func(args []string) string {
	return func(args []string) string {
		for _, a := range args[1:] {
			if a == k {
				return "-MOVED 42 " + target + "\r\n"
			}
		}
		return ""
	}
}

func TestRoutedFollowsMovedRedirect(t *testing.T) {
	owner := startStub(t)
	stale := startStub(t)
	stale.mu.Lock()
	stale.hook = movedHook("k", owner.addr())
	stale.mu.Unlock()

	rc := NewRouted(fixedRouter{addr: stale.addr()})
	defer rc.Close()

	if err := rc.Set("k", "v"); err != nil {
		t.Fatalf("Set through MOVED: %v", err)
	}
	owner.mu.Lock()
	got := owner.kv["k"]
	owner.mu.Unlock()
	if got != "v" {
		t.Fatalf("value did not land on redirect target: %q", got)
	}
	if v, err := rc.Get("k"); err != nil || v != "v" {
		t.Fatalf("Get through MOVED: %q %v", v, err)
	}
}

func TestRoutedMovedTriggersRefresh(t *testing.T) {
	owner := startStub(t)
	stale := startStub(t)
	stale.mu.Lock()
	stale.hook = movedHook("k", owner.addr())
	stale.mu.Unlock()

	router := &swapRouter{}
	router.addr.Store(stale.addr())
	rc := NewRouted(router)
	defer rc.Close()
	var refreshes atomic.Int32
	rc.refreshFn = func() error {
		refreshes.Add(1)
		router.addr.Store(owner.addr())
		return nil
	}

	if err := rc.Set("k", "v1"); err != nil {
		t.Fatalf("Set through MOVED: %v", err)
	}
	if n := refreshes.Load(); n != 1 {
		t.Fatalf("refreshes after MOVED = %d, want 1", n)
	}
	// The refreshed table now routes straight to the owner: no new MOVED,
	// no new refresh.
	if err := rc.Set("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if n := refreshes.Load(); n != 1 {
		t.Fatalf("refreshes after rerouted Set = %d, want 1", n)
	}
	if got := len(stale.lastOf("SET")) + len(stale.lastOf("MSET")); got != 0 {
		// Only the first Set may have reached the stale node; the second
		// must not (it was rerouted). counts: stale saw exactly one write.
		c := stale.counts()
		if c["SET"]+c["MSET"] != 1 {
			t.Fatalf("stale node writes = %v, want exactly 1", c)
		}
	}
	owner.mu.Lock()
	got := owner.kv["k"]
	owner.mu.Unlock()
	if got != "v2" {
		t.Fatalf("owner value = %q", got)
	}
}

func TestRoutedConnErrorRefreshesAndRetries(t *testing.T) {
	// A dead address (listener opened then closed so nothing answers).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	live := startStub(t)
	router := &swapRouter{}
	router.addr.Store(deadAddr)
	rc := NewRouted(router)
	defer rc.Close()
	rc.refreshFn = func() error {
		router.addr.Store(live.addr())
		return nil
	}

	if err := rc.Set("k", "v"); err != nil {
		t.Fatalf("Set should survive a dead node via refresh: %v", err)
	}
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.kv["k"] != "v" {
		t.Fatalf("write did not land on refreshed node: %q", live.kv["k"])
	}
}

func TestRoutedSurfacesServerErrors(t *testing.T) {
	srv := startStub(t)
	rc := NewRouted(fixedRouter{addr: srv.addr()})
	defer rc.Close()
	var refreshes atomic.Int32
	rc.refreshFn = func() error { refreshes.Add(1); return nil }

	c, err := rc.clientForAddr(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("BOOM"); err == nil || refreshes.Load() != 0 {
		t.Fatalf("plain server error must surface without refresh: %v %d", err, refreshes.Load())
	}
	// And through the routed retry loop: an error that is neither a
	// redirect nor transient returns immediately.
	start := time.Now()
	err = rc.doRouted("k", func(c *Client) error { return errors.New("WRONGTYPE") })
	if err == nil || !strings.Contains(err.Error(), "WRONGTYPE") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("plain error should not burn the retry budget")
	}
	if refreshes.Load() != 0 {
		t.Fatal("plain error must not refresh")
	}
}

func TestNewClusterFetchesTableAndRoutes(t *testing.T) {
	node := startStub(t)
	coord := cluster.NewCoordinator()
	cs, err := cluster.StartCoordServer("127.0.0.1:0", coord, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	coord.Register(cluster.Node{ID: "n1", Addr: node.addr(), Role: cluster.RoleMaster})

	rc, err := NewCluster(cs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if err := rc.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, err := rc.Get("k"); err != nil || v != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}

	// A manual Refresh against the live coordinator succeeds and keeps
	// routing intact.
	if err := rc.Refresh(); err != nil {
		t.Fatal(err)
	}
	if v, err := rc.Get("k"); err != nil || v != "v" {
		t.Fatalf("Get after refresh = %q, %v", v, err)
	}
}

// TestRoutedRedirectStormCollapsesRefreshes: many concurrent MOVED
// replies trigger at most a couple of refreshes thanks to rate limiting.
func TestRoutedRedirectStormCollapsesRefreshes(t *testing.T) {
	owner := startStub(t)
	stale := startStub(t)
	stale.mu.Lock()
	stale.hook = func(args []string) string {
		switch strings.ToUpper(args[0]) {
		case "SET", "MSET":
			return "-MOVED 42 " + owner.addr() + "\r\n"
		}
		return ""
	}
	stale.mu.Unlock()

	rc := NewRouted(fixedRouter{addr: stale.addr()})
	defer rc.Close()
	var refreshes atomic.Int32
	rc.refreshFn = func() error { refreshes.Add(1); return nil }

	const K = 32
	var wg sync.WaitGroup
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- rc.Set(fmt.Sprintf("k%02d", i), "v")
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := refreshes.Load(); n > 4 {
		t.Fatalf("redirect storm caused %d refreshes, want <= 4", n)
	}
}
