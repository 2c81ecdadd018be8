package cluster

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tierbase/internal/resp"
)

// fakeNode is a minimal RESP listener that records the commands it
// receives (the promotion push) and answers +OK.
type fakeNode struct {
	ln   net.Listener
	mu   sync.Mutex
	cmds [][]string
}

func startFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeNode{ln: ln}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				cr := newReader(nc)
				for {
					raw, err := cr.ReadCommand()
					if err != nil {
						return
					}
					args := make([]string, len(raw))
					for i, a := range raw {
						args[i] = string(a)
					}
					f.mu.Lock()
					f.cmds = append(f.cmds, args)
					f.mu.Unlock()
					if _, err := nc.Write([]byte("+OK\r\n")); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeNode) addr() string { return f.ln.Addr().String() }

func (f *fakeNode) commands() [][]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]string, len(f.cmds))
	copy(out, f.cmds)
	return out
}

func TestCoordServerRegisterHeartbeatTable(t *testing.T) {
	coord := NewCoordinator()
	cs, err := StartCoordServer("127.0.0.1:0", coord, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	do := func(args ...string) interface{} {
		t.Helper()
		reply, err := send(cs.Addr(), time.Second, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return reply
	}
	if got := do("PING"); got != "PONG" {
		t.Fatalf("PING = %q", got)
	}
	if got := do("CLUSTER", "REGISTER", "m1", "127.0.0.1:7001", "master", "-"); got != "OK" {
		t.Fatalf("REGISTER = %q", got)
	}
	if got := do("CLUSTER", "REGISTER", "r1", "127.0.0.1:7002", "replica", "127.0.0.1:7001"); got != "OK" {
		t.Fatalf("REGISTER replica = %q", got)
	}
	if got := do("CLUSTER", "HEARTBEAT", "m1"); got != "OK" {
		t.Fatalf("HEARTBEAT = %q", got)
	}
	if got := do("CLUSTER", "HEARTBEAT", "ghost"); got != resp.Error("UNKNOWNNODE ghost") {
		t.Fatalf("HEARTBEAT ghost = %q", got)
	}
	if got, ok := do("CLUSTER", "EPOCH").(int64); !ok || got == 0 {
		t.Fatalf("EPOCH = %v", got)
	}

	// TABLE returns the routing table as JSON in one bulk.
	blob, _ := do("CLUSTER", "TABLE").(string)
	var rt RoutingTable
	if err := json.Unmarshal([]byte(blob), &rt); err != nil {
		t.Fatalf("table JSON: %v", err)
	}
	if rt.Epoch == 0 || rt.Addrs["m1"] != "127.0.0.1:7001" {
		t.Fatalf("table = %+v", rt)
	}
	if rt.NodeFor("anykey") != "m1" {
		t.Fatalf("slots not owned by m1: %s", rt.NodeFor("anykey"))
	}
}

func TestCoordServerFailoverPush(t *testing.T) {
	replica := startFakeNode(t)

	coord := NewCoordinator()
	coord.HeartbeatTimeout = 50 * time.Millisecond
	cs, err := StartCoordServer("127.0.0.1:0", coord, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	coord.Register(Node{ID: "m1", Addr: "127.0.0.1:1", Role: RoleMaster})
	coord.Register(Node{ID: "r1", Addr: replica.addr(), Role: RoleReplica, MasterAddr: "127.0.0.1:1"})

	// Keep the replica alive while the master goes silent.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		coord.Heartbeat("r1")
		promoted := false
		for _, cmds := range replica.commands() {
			if len(cmds) == 3 && strings.EqualFold(cmds[0], "REPLICAOF") &&
				strings.EqualFold(cmds[1], "NO") && strings.EqualFold(cmds[2], "ONE") {
				promoted = true
			}
		}
		if promoted {
			table := coord.Table()
			if table.NodeFor("k") != "r1" {
				t.Fatalf("routing table not repointed: %+v", table.Slots[SlotFor("k")])
			}
			if coord.Failovers() != 1 {
				t.Fatalf("failovers = %d", coord.Failovers())
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("replica never received REPLICAOF NO ONE")
}
