package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/replication"
)

// Config is the single consolidated server configuration: everything
// cmd/tierbase-server's flags (and every test harness) can set lives
// here, validated in one place. Zero values mean "use the default" —
// normalize fills them and Validate rejects contradictions, so callers
// build one Config and hand it to Start.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Shards must be 0 or 1: a process serves one data node, and the
	// engine's lock stripes are its only sharding. The field stays because
	// the ledger (benchmark/stack.go) sets it.
	Shards int
	// EngineOptions configures the node's engine (compression, PMem...).
	EngineOptions engine.Options
	// TieredFactory builds the node's tiered store over its engine
	// (write-through/write-back against a storage tier). When nil, the
	// node gets a cache-only tiered store: commands and replication take
	// the same route through it either way.
	TieredFactory func(eng *engine.Engine) (*cache.Tiered, error)
	// StorageStats, when set, reports the storage tier's LSM stats for the
	// INFO "storage" section, which reads element 0 (the ledger wires a
	// one-element slice). The deployment wires it (the server doesn't own
	// the LSM handle — the tiered store sees only the Storage interface).
	StorageStats func() []lsm.Stats
	// Pool configures the node's elastic gate.
	Pool elastic.PoolOptions
	// Replication configures the replication/cluster role of this
	// process. Replication is enabled iff Replication.NodeID is set.
	Replication ReplicationConfig
	// Overload configures admission control, slow-client shedding, and
	// the global memory watermarks (see overload.go). Zero values pick
	// safe defaults; the watermark gate is off until HighWatermarkBytes
	// is set.
	Overload OverloadConfig
	// WrapConn, when set, wraps every accepted connection before the
	// server serves it — the fault-injection seam (internal/faults wraps
	// sockets with injected latency, throughput caps and stalls). Must
	// return a connection that behaves like the original.
	WrapConn func(net.Conn) net.Conn
}

// ReplicationConfig configures a node's place in a cluster: its
// identity, its initial role, the op-log window, the semi-sync
// durability knob, and the coordinator it reports to. The whole section
// is inert unless NodeID is set.
type ReplicationConfig struct {
	// NodeID is this node's cluster identity. Setting it enables the
	// replication machinery (op log, SYNC serving, REPLICAOF, role-aware
	// command dispatch).
	NodeID string
	// AdvertiseAddr is the address other nodes and clients reach this
	// node at; defaults to the bound listen address.
	AdvertiseAddr string
	// MasterAddr, when set, starts the node as a replica of that address
	// (the -replicaof flag). Empty starts it as a master.
	MasterAddr string
	// LogCap is the retained op-log window (default
	// replication.DefaultLogCap). A replica reconnecting within the
	// window resumes incrementally; outside it, full sync.
	LogCap int
	// SemiSyncAcks, when > 0, makes every write wait until that many
	// replicas acknowledged it (or AckTimeout passes, which fails the
	// write with -NOREPLICAS) before replying — the semi-synchronous
	// protocol of paper §4.1.2. 0 replicates asynchronously.
	SemiSyncAcks int
	// AckTimeout bounds a semi-sync wait (default 2s).
	AckTimeout time.Duration
	// CoordinatorAddr, when set, makes the node register with and
	// heartbeat to the coordinator cluster (failure detection +
	// promotion, paper §3).
	CoordinatorAddr string
	// HeartbeatInterval is the coordinator heartbeat period (default
	// 500ms).
	HeartbeatInterval time.Duration
	// WriteTimeout bounds every replication-frame write to a replica
	// (op batches, snapshot chunks, keepalives). A replica that stops
	// draining its socket fails the write within this bound instead of
	// stalling the master-side session forever (default 5s).
	WriteTimeout time.Duration
	// KeepaliveInterval is the master→replica ping period. Pings carry
	// the log head; the replica answers with a cumulative ack, so an
	// idle link proves liveness both ways (default 1s).
	KeepaliveInterval time.Duration
	// ReadTimeout bounds how long either side waits for the next frame
	// before declaring the link dead. With keepalives flowing, a healthy
	// idle link always has a frame within KeepaliveInterval; the default
	// is 4x KeepaliveInterval.
	ReadTimeout time.Duration
	// ShedBacklog is the laggard-shedding bound: a replica whose unacked
	// backlog (log head minus its cumulative ack) exceeds this many ops
	// is disconnected — it re-syncs later (incrementally if it recovers
	// within the log window, full sync otherwise) instead of holding
	// master-side resources. Default LogCap/2; negative disables.
	ShedBacklog int
	// Dialer overrides how a replica dials its master — the
	// fault-injection seam for the replica side of the link (default
	// net.DialTimeout on "tcp").
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

// Enabled reports whether the replication machinery is on.
func (rc *ReplicationConfig) Enabled() bool { return rc.NodeID != "" }

// normalize fills defaulted fields in place.
func (c *Config) normalize() {
	r := &c.Replication
	if r.LogCap <= 0 {
		r.LogCap = replication.DefaultLogCap
	}
	if r.AckTimeout <= 0 {
		r.AckTimeout = 2 * time.Second
	}
	if r.HeartbeatInterval <= 0 {
		r.HeartbeatInterval = 500 * time.Millisecond
	}
	if r.WriteTimeout <= 0 {
		r.WriteTimeout = 5 * time.Second
	}
	if r.KeepaliveInterval <= 0 {
		r.KeepaliveInterval = time.Second
	}
	if r.ReadTimeout <= 0 {
		r.ReadTimeout = 4 * r.KeepaliveInterval
	}
	if r.ShedBacklog == 0 {
		r.ShedBacklog = r.LogCap / 2
	}
	c.Overload.normalize()
}

// Validate rejects contradictory configuration. Start calls it after
// normalize; cmd/tierbase-server calls it to fail fast on bad flags.
func (c *Config) Validate() error {
	if c.Shards != 0 && c.Shards != 1 {
		return fmt.Errorf("server: %d shards: a process serves one node", c.Shards)
	}
	if err := c.Overload.validate(); err != nil {
		return err
	}
	r := &c.Replication
	if r.SemiSyncAcks < 0 {
		return fmt.Errorf("server: negative semi-sync ack count %d", r.SemiSyncAcks)
	}
	if !r.Enabled() {
		if r.MasterAddr != "" {
			return errors.New("server: replicaof requires a node id")
		}
		if r.CoordinatorAddr != "" {
			return errors.New("server: coordinator registration requires a node id")
		}
		if r.SemiSyncAcks > 0 {
			return errors.New("server: semi-sync requires a node id")
		}
		return nil
	}
	if r.MasterAddr != "" && r.SemiSyncAcks > 0 {
		return errors.New("server: a replica cannot require semi-sync acks")
	}
	return nil
}
