package cluster

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestSlotForStable(t *testing.T) {
	a := SlotFor("user000000000001")
	if a != SlotFor("user000000000001") {
		t.Fatal("slot not deterministic")
	}
	if a < 0 || a >= NumSlots {
		t.Fatalf("slot out of range: %d", a)
	}
}

func TestSlotDistributionProperty(t *testing.T) {
	f := func(keys []string) bool {
		for _, k := range keys {
			s := SlotFor(k)
			if s < 0 || s >= NumSlots {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Distribution sanity: many keys spread over many slots.
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		seen[SlotFor(fmt.Sprintf("key%08d", i))] = true
	}
	if len(seen) < NumSlots/2 {
		t.Fatalf("poor slot spread: %d/%d", len(seen), NumSlots)
	}
}

func newTestCoordinator(clock *time.Time) *Coordinator {
	c := NewCoordinator()
	c.Clock = func() time.Time { return *clock }
	c.HeartbeatTimeout = time.Second
	return c
}

func TestRegisterRebalances(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "m1", Addr: "h1:1", Role: RoleMaster})
	rt := c.Table()
	for i := 0; i < NumSlots; i++ {
		if rt.Slots[i] != "m1" {
			t.Fatalf("slot %d unassigned", i)
		}
	}
	c.Register(Node{ID: "m2", Addr: "h2:1", Role: RoleMaster})
	rt2 := c.Table()
	if rt2.Epoch <= rt.Epoch {
		t.Fatal("epoch did not advance")
	}
	counts := map[string]int{}
	for _, id := range rt2.Slots {
		counts[id]++
	}
	if counts["m1"] != NumSlots/2 || counts["m2"] != NumSlots/2 {
		t.Fatalf("uneven split: %v", counts)
	}
	if rt2.AddrFor("anykey") == "" {
		t.Fatal("address lookup failed")
	}
}

func TestReplicaDoesNotOwnSlots(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "m1", Role: RoleMaster})
	c.Register(Node{ID: "r1", Role: RoleReplica, MasterID: "m1"})
	rt := c.Table()
	for _, id := range rt.Slots {
		if id != "m1" {
			t.Fatalf("replica owns slot: %s", id)
		}
	}
}

func TestHeartbeatUnknownNode(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	if err := c.Heartbeat("ghost"); err != ErrUnknownNode {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
}

func TestFailoverPromotesReplica(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "m1", Role: RoleMaster})
	c.Register(Node{ID: "r1", Role: RoleReplica, MasterID: "m1"})
	c.Register(Node{ID: "m2", Role: RoleMaster})

	// m1 stops heartbeating; r1 and m2 stay alive.
	now = now.Add(500 * time.Millisecond)
	c.Heartbeat("r1")
	c.Heartbeat("m2")
	now = now.Add(900 * time.Millisecond)
	failed := c.CheckFailures()
	if len(failed) != 1 || failed[0].FailedID != "m1" || failed[0].PromotedID != "r1" {
		t.Fatalf("failed: %+v", failed)
	}
	// r1 must now be a master owning slots.
	rt := c.Table()
	counts := map[string]int{}
	for _, id := range rt.Slots {
		counts[id]++
	}
	if counts["r1"] == 0 {
		t.Fatalf("promoted replica owns no slots: %v", counts)
	}
	if counts["m1"] != 0 {
		t.Fatalf("dead master still owns slots: %v", counts)
	}
}

func TestFailoverWithoutReplicaRedistributes(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "m1", Role: RoleMaster})
	c.Register(Node{ID: "m2", Role: RoleMaster})
	now = now.Add(2 * time.Second)
	c.Heartbeat("m2")
	now = now.Add(time.Second)
	// m1 silent past timeout... wait: m2 heartbeat at t=2s, now=3s, timeout 1s —
	// m2 is exactly at the boundary; keep it alive with another beat.
	c.Heartbeat("m2")
	failed := c.CheckFailures()
	if len(failed) != 1 || failed[0].FailedID != "m1" || failed[0].PromotedID != "" {
		t.Fatalf("failed: %+v", failed)
	}
	rt := c.Table()
	for i, id := range rt.Slots {
		if id != "m2" {
			t.Fatalf("slot %d owned by %q, want m2", i, id)
		}
	}
}

func TestNoFalseFailover(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "m1", Role: RoleMaster})
	now = now.Add(500 * time.Millisecond)
	c.Heartbeat("m1")
	now = now.Add(800 * time.Millisecond)
	if failed := c.CheckFailures(); len(failed) != 0 {
		t.Fatalf("premature failover: %v", failed)
	}
}

func TestDeregister(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "m1", Role: RoleMaster})
	c.Register(Node{ID: "m2", Role: RoleMaster})
	c.Deregister("m1")
	rt := c.Table()
	for _, id := range rt.Slots {
		if id != "m2" {
			t.Fatal("deregistered master still routed")
		}
	}
	if ev := c.Deregister("ghost"); ev != nil {
		t.Fatalf("unknown node deregistered: %+v", ev)
	}
	if nodes := c.Nodes(); len(nodes) != 1 || nodes[0].ID != "m2" {
		t.Fatalf("nodes: %+v", nodes)
	}
}

// A draining master's slots hand off to its live replica immediately —
// the graceful-shutdown counterpart of the heartbeat-timeout failover.
func TestDeregisterHandsOffToReplica(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "m1", Addr: "h1:1", Role: RoleMaster})
	c.Register(Node{ID: "r1", Addr: "h2:1", Role: RoleReplica, MasterAddr: "h1:1"})
	c.Register(Node{ID: "r2", Addr: "h3:1", Role: RoleReplica, MasterAddr: "h1:1"})

	ev := c.Deregister("m1")
	if ev == nil || ev.PromotedID != "r1" || ev.PromotedAddr != "h2:1" {
		t.Fatalf("handoff event = %+v, want r1 promoted", ev)
	}
	rt := c.Table()
	for i, id := range rt.Slots {
		if id != "r1" {
			t.Fatalf("slot %d owned by %q after handoff, want r1", i, id)
		}
	}
	// The sibling replica now follows the promotee.
	for _, n := range c.Nodes() {
		if n.ID == "r2" && (n.MasterID != "r1" || n.Role != RoleReplica) {
			t.Fatalf("r2 not re-pointed: %+v", n)
		}
	}

	// A master with no replica still deregisters cleanly: slots empty.
	ev = c.Deregister("r1")
	if ev == nil || ev.PromotedID != "r2" {
		t.Fatalf("second handoff = %+v, want r2 promoted", ev)
	}
	if ev2 := c.Deregister("r2"); ev2 == nil || ev2.PromotedID != "" {
		t.Fatalf("final deregister = %+v, want no promotee", ev2)
	}
	for i, id := range c.Table().Slots {
		if id != "" {
			t.Fatalf("slot %d still owned by %q after all masters drained", i, id)
		}
	}
}

func TestNodesSnapshot(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "b", Role: RoleMaster})
	c.Register(Node{ID: "a", Role: RoleReplica, MasterID: "b"})
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0].ID != "a" || nodes[1].ID != "b" {
		t.Fatalf("nodes: %v", nodes)
	}
	if RoleMaster.String() != "master" || RoleReplica.String() != "replica" {
		t.Fatal("role names")
	}
}

func TestTableStringAndIsolation(t *testing.T) {
	now := time.Unix(0, 0)
	c := newTestCoordinator(&now)
	c.Register(Node{ID: "m1", Addr: "x", Role: RoleMaster})
	rt := c.Table()
	if rt.String() == "" {
		t.Fatal("empty string")
	}
	// Mutating the copy must not affect the coordinator.
	rt.Addrs["m1"] = "hacked"
	if c.Table().Addrs["m1"] == "hacked" {
		t.Fatal("table copy leaked internal map")
	}
}
