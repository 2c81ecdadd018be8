package client_test

import (
	"fmt"
	"testing"

	"tierbase/internal/client"
	"tierbase/internal/cluster"
	"tierbase/internal/server"
)

func TestDialFailure(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestRoutedClientAcrossNodes(t *testing.T) {
	// Two server processes, slots split between them by the coordinator.
	s1, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	coord := cluster.NewCoordinator()
	coord.Register(cluster.Node{ID: "n1", Addr: s1.Addr(), Role: cluster.RoleMaster})
	coord.Register(cluster.Node{ID: "n2", Addr: s2.Addr(), Role: cluster.RoleMaster})
	table := coord.Table()

	rc := client.NewRouted(&table)
	defer rc.Close()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("routed%03d", i)
		if err := rc.Set(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("routed%03d", i)
		if v, err := rc.Get(k); err != nil || v != "v" {
			t.Fatalf("get %s: %q %v", k, v, err)
		}
	}
	// Both nodes must hold a share of the keys.
	n1 := keysOn(s1)
	n2 := keysOn(s2)
	if n1 == 0 || n2 == 0 {
		t.Fatalf("routing not spread: n1=%d n2=%d", n1, n2)
	}
	if n1+n2 != 100 {
		t.Fatalf("key loss: %d+%d", n1, n2)
	}
}

func keysOn(s *server.Server) int { return s.Shards()[0].Len() }

func TestRoutedNoNode(t *testing.T) {
	rc := client.NewRouted(emptyRouter{})
	defer rc.Close()
	if err := rc.Set("k", "v"); err == nil {
		t.Fatal("routing with no nodes should fail")
	}
	if _, err := rc.Get("k"); err == nil {
		t.Fatal("routing with no nodes should fail")
	}
}

type emptyRouter struct{}

func (emptyRouter) AddrFor(string) string { return "" }

func TestClientMGetMSet(t *testing.T) {
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

	if err := c.MSet(map[string]string{"a": "1", "b": "2", "c": "3"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.MGet("a", "b", "missing", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["a"] != "1" || got["b"] != "2" || got["c"] != "3" {
		t.Fatalf("mget: %v", got)
	}
	if out, err := c.MGet(); err != nil || len(out) != 0 {
		t.Fatalf("empty mget: %v %v", out, err)
	}
	if err := c.MSet(nil); err != nil {
		t.Fatalf("empty mset: %v", err)
	}
}

func TestRoutedMGetMSetAcrossNodes(t *testing.T) {
	s1, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	coord := cluster.NewCoordinator()
	coord.Register(cluster.Node{ID: "n1", Addr: s1.Addr(), Role: cluster.RoleMaster})
	coord.Register(cluster.Node{ID: "n2", Addr: s2.Addr(), Role: cluster.RoleMaster})
	table := coord.Table()

	rc := client.NewRouted(&table)
	defer rc.Close()

	pairs := map[string]string{}
	keys := []string{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("batch%03d", i)
		pairs[k] = fmt.Sprintf("v%03d", i)
		keys = append(keys, k)
	}
	for k, v := range pairs {
		if err := rc.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := rc.MGet(append(keys, "absent")...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("mget returned %d/%d keys", len(got), len(pairs))
	}
	for k, want := range pairs {
		if got[k] != want {
			t.Fatalf("mget[%s] = %q, want %q", k, got[k], want)
		}
	}
	// Both nodes must have served a share: check each node holds keys.
	n1 := s1.Shards()[0].Stats()
	n2 := s2.Shards()[0].Stats()
	if n1.Keys == 0 || n2.Keys == 0 {
		t.Fatalf("batch did not spread: n1=%d n2=%d keys", n1.Keys, n2.Keys)
	}
}
