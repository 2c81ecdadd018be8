// Package cluster implements the coordinator of TierBase (paper §3):
// hash-slot sharding across data nodes, routing-table distribution to
// clients, heartbeat liveness tracking, and master failover by replica
// promotion. "Coordinators oversee the entire cluster, managing failovers
// and administering tenant resource allocation."
package cluster

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"
)

// NumSlots is the size of the hash-slot space (Redis Cluster uses 16384;
// a smaller space keeps routing tables compact at repro scale).
const NumSlots = 1024

// SlotFor maps a key to its hash slot.
func SlotFor(key string) int {
	return int(crc32.ChecksumIEEE([]byte(key)) % NumSlots)
}

// Role distinguishes masters from replicas.
type Role int

// Node roles.
const (
	RoleMaster Role = iota
	RoleReplica
)

// String names the role.
func (r Role) String() string {
	if r == RoleReplica {
		return "replica"
	}
	return "master"
}

// Node is one data node registration.
type Node struct {
	ID       string
	Addr     string
	Role     Role
	MasterID string // for replicas: whom they follow (node ID)
	// MasterAddr is the replica's master by address — what a data node
	// actually knows from its -replicaof flag before any IDs are
	// exchanged. Failover matches replicas to a dead master by either
	// MasterID or MasterAddr.
	MasterAddr string
	lastSeen   time.Time
	alive      bool
}

// RoutingTable maps slots to master node IDs; clients cache it and refresh
// on epoch change.
type RoutingTable struct {
	Epoch uint64
	Slots [NumSlots]string  // slot -> master node ID
	Addrs map[string]string // node ID -> address
}

// NodeFor returns the master node ID serving key.
func (rt *RoutingTable) NodeFor(key string) string { return rt.Slots[SlotFor(key)] }

// AddrFor returns the address serving key.
func (rt *RoutingTable) AddrFor(key string) string { return rt.Addrs[rt.NodeFor(key)] }

// Coordinator tracks membership and owns the routing table.
type Coordinator struct {
	mu    sync.Mutex
	nodes map[string]*Node
	table RoutingTable
	// HeartbeatTimeout marks a node dead when exceeded (default 3s).
	HeartbeatTimeout time.Duration
	// Clock is injectable for tests.
	Clock func() time.Time

	failovers int64
}

// Coordinator errors.
var (
	ErrUnknownNode = errors.New("cluster: unknown node")
	ErrNoMasters   = errors.New("cluster: no master nodes registered")
	ErrNoReplica   = errors.New("cluster: no replica available for failover")
)

// NewCoordinator creates an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		nodes:            make(map[string]*Node),
		HeartbeatTimeout: 3 * time.Second,
		Clock:            time.Now,
	}
}

// Register adds (or re-adds) a node and rebalances slots across masters.
func (c *Coordinator) Register(n Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n.lastSeen = c.Clock()
	n.alive = true
	c.nodes[n.ID] = &n
	if n.Role == RoleMaster {
		c.rebalanceLocked()
	}
}

// Deregister removes a node (graceful shutdown). A draining master's
// slots are handed to its promoted replica when it has one — see
// DeregisterDetail.
func (c *Coordinator) Deregister(id string) {
	c.DeregisterDetail(id)
}

// DeregisterDetail removes a node and, when the node was a master with a
// live replica, performs the same handoff a failure would — the
// lowest-ID live replica is promoted, surviving replicas are re-pointed
// at it, and the table rebalances — except here it happens immediately,
// with the departing master still alive to finish streaming. Returns the
// handoff event (nil when the node was unknown, a replica, or a master
// with no replica) so a serving loop can push the role change to the
// promoted process.
func (c *Coordinator) DeregisterDetail(id string) *Failover {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return nil
	}
	delete(c.nodes, id)
	if n.Role != RoleMaster {
		return nil
	}
	ev := Failover{FailedID: id, FailedAddr: n.Addr}
	if promoted := c.promoteReplicaLocked(id, n.Addr); promoted != nil {
		ev.PromotedID = promoted.ID
		ev.PromotedAddr = promoted.Addr
	}
	c.rebalanceLocked()
	return &ev
}

// promoteReplicaLocked promotes the lowest-ID live replica of the master
// identified by (id, addr) and re-points its sibling replicas at the
// promotee. Returns nil when the master had no live replica.
func (c *Coordinator) promoteReplicaLocked(id, addr string) *Node {
	var candidates []string
	for rid, r := range c.nodes {
		if r.Role == RoleReplica && r.alive &&
			(r.MasterID == id || (r.MasterAddr != "" && r.MasterAddr == addr)) {
			candidates = append(candidates, rid)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.Strings(candidates)
	promoted := c.nodes[candidates[0]]
	promoted.Role = RoleMaster
	promoted.MasterID = ""
	promoted.MasterAddr = ""
	for _, rid := range candidates[1:] {
		c.nodes[rid].MasterID = promoted.ID
		c.nodes[rid].MasterAddr = promoted.Addr
	}
	c.failovers++
	return promoted
}

// Heartbeat records liveness for a node.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return ErrUnknownNode
	}
	n.lastSeen = c.Clock()
	n.alive = true
	return nil
}

// rebalanceLocked spreads slots evenly across live masters, in node-ID
// order for determinism. Bumps the table epoch.
func (c *Coordinator) rebalanceLocked() {
	var masters []string
	for id, n := range c.nodes {
		if n.Role == RoleMaster && n.alive {
			masters = append(masters, id)
		}
	}
	sort.Strings(masters)
	c.table.Epoch++
	c.table.Addrs = make(map[string]string, len(c.nodes))
	for id, n := range c.nodes {
		c.table.Addrs[id] = n.Addr
	}
	if len(masters) == 0 {
		for i := range c.table.Slots {
			c.table.Slots[i] = ""
		}
		return
	}
	for i := range c.table.Slots {
		c.table.Slots[i] = masters[i%len(masters)]
	}
}

// Table returns a copy of the current routing table.
func (c *Coordinator) Table() RoutingTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := c.table
	cp.Addrs = make(map[string]string, len(c.table.Addrs))
	for k, v := range c.table.Addrs {
		cp.Addrs[k] = v
	}
	return cp
}

// Failover describes one master failure handled by CheckFailuresDetail.
// PromotedID/PromotedAddr are empty when the master had no live replica
// (its slots redistribute across the surviving masters).
type Failover struct {
	FailedID     string
	FailedAddr   string
	PromotedID   string
	PromotedAddr string
}

// CheckFailures scans heartbeats, promotes replicas of dead masters, and
// returns the IDs of masters failed over. Call periodically.
func (c *Coordinator) CheckFailures() []string {
	events := c.CheckFailuresDetail()
	ids := make([]string, 0, len(events))
	for _, ev := range events {
		ids = append(ids, ev.FailedID)
	}
	return ids
}

// CheckFailuresDetail scans heartbeats and handles dead masters:
// the lowest-ID live replica of each (matched by MasterID or
// MasterAddr) is promoted in the coordinator's state, surviving
// replicas of the dead master are re-pointed at the promotee, and the
// routing table rebalances. Returns one event per failed master so a
// serving loop can push role changes (REPLICAOF NO ONE) to the live
// processes.
func (c *Coordinator) CheckFailuresDetail() []Failover {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.Clock()
	var events []Failover
	changed := false
	for id, n := range c.nodes {
		if !n.alive || now.Sub(n.lastSeen) <= c.HeartbeatTimeout {
			continue
		}
		n.alive = false
		if n.Role != RoleMaster {
			continue
		}
		ev := Failover{FailedID: id, FailedAddr: n.Addr}
		// With no replica the master's slots redistribute on rebalance.
		if promoted := c.promoteReplicaLocked(id, n.Addr); promoted != nil {
			ev.PromotedID = promoted.ID
			ev.PromotedAddr = promoted.Addr
		}
		events = append(events, ev)
		changed = true
	}
	if changed {
		c.rebalanceLocked()
	}
	return events
}

// Failovers reports the number of promotions performed.
func (c *Coordinator) Failovers() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// Nodes returns a snapshot of the membership, sorted by ID.
func (c *Coordinator) Nodes() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Masters returns the live master IDs, sorted.
func (c *Coordinator) Masters() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for id, n := range c.nodes {
		if n.Role == RoleMaster && n.alive {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil, ErrNoMasters
	}
	sort.Strings(out)
	return out, nil
}

// String renders the routing table compactly.
func (rt *RoutingTable) String() string {
	counts := map[string]int{}
	for _, id := range rt.Slots {
		counts[id]++
	}
	ids := make([]string, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s := fmt.Sprintf("epoch=%d", rt.Epoch)
	for _, id := range ids {
		s += fmt.Sprintf(" %s:%d", id, counts[id])
	}
	return s
}
