// Command tierbase-server runs a TierBase RESP server (Redis-compatible
// wire protocol) with configurable sharding, tiering policy, compression
// and elastic threading.
//
// Usage:
//
//	tierbase-server -addr :6380 -shards 4 -policy write-back -dir /data/tb
//	redis-cli -p 6380 SET greeting hello
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/server"
	"tierbase/internal/stack"
	"tierbase/internal/workload"
)

// tieringFlags maps -policy to the cache policy and rejects the -dir and
// -cache-bytes values that contradict it.
func tieringFlags(policy, dir string, cacheBytes int64) (cache.Policy, error) {
	var p cache.Policy
	switch policy {
	case "cache-only":
		p = cache.CacheOnly
	case "write-through":
		p = cache.WriteThrough
	case "write-back":
		p = cache.WriteBack
	default:
		return 0, fmt.Errorf("unknown policy %q", policy)
	}
	switch {
	case p == cache.CacheOnly && cacheBytes > 0:
		return 0, errors.New("-cache-bytes needs a storage tier to evict to; -policy cache-only has none (use write-through or write-back with -dir)")
	case p != cache.CacheOnly && dir == "":
		return 0, errors.New("-dir required for tiered policies")
	}
	return p, nil
}

// stackFlags maps the storage flags onto one shard's stack; the
// compressor is pre-trained on 500 records of the -train-on dataset.
func stackFlags(policy, dir string, cacheBytes int64, compression, trainOn string) (stack.Config, error) {
	p, err := tieringFlags(policy, dir, cacheBytes)
	if err != nil {
		return stack.Config{}, err
	}
	c := stack.Config{Policy: p, CacheBytes: cacheBytes, Compression: compression}
	if compression != "" {
		c.TrainingSamples = workload.Sample(workload.DatasetByName(trainOn), 500)
	}
	return c, nil
}

// shardStacks builds each shard's storage tier in dir/shard%03d, in the
// order server.Start asks for them, so an existing -dir reopens shard by
// shard. It keeps the stacks for INFO storage and for closing after the
// server.
type shardStacks struct {
	cfg    stack.Config
	dir    string
	stacks []*stack.Stack
}

// factory is server.Config.TieredFactory.
func (s *shardStacks) factory(eng *engine.Engine) (*cache.Tiered, error) {
	c := s.cfg
	c.Dir = filepath.Join(s.dir, fmt.Sprintf("shard%03d", len(s.stacks)))
	st, err := stack.NewTiered(c, eng)
	if err != nil {
		return nil, err
	}
	s.stacks = append(s.stacks, st)
	return st.Tiered, nil
}

// stats is server.Config.StorageStats: per-shard LSM counters (flush
// backlog, level shape, write volume).
func (s *shardStacks) stats() []lsm.Stats {
	out := make([]lsm.Stats, len(s.stacks))
	for i, st := range s.stacks {
		out[i] = st.DB.Stats()
	}
	return out
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:6380", "listen address")
		shards      = flag.Int("shards", 1, "data-node shards in this process")
		policy      = flag.String("policy", "cache-only", "cache-only | write-through | write-back")
		dir         = flag.String("dir", "", "storage-tier directory (tiered policies)")
		compression = flag.String("compression", "", "value compressor: pbc | zstd-d | zstd-b")
		trainOn     = flag.String("train-on", "kv1", "dataset for compressor pre-training: cities | kv1 | kv2")
		elasticOn   = flag.Bool("elastic", true, "enable elastic threading")
		maxWorkers  = flag.Int("max-workers", 4, "CPU budget per shard")
		cacheBytes  = flag.Int64("cache-bytes", 0, "cache capacity per shard, tiered policies only (0 = unbounded)")
		boostDepth  = flag.Int("boost-depth", 0, "queue backlog that triggers boost mode (0 = default 4)")
		queueSize   = flag.Int("queue-size", 0, "pending task queue bound per shard (0 = default)")
		cooldown    = flag.Int("cooldown-ticks", 0, "calm evaluations before shrinking back to single mode (0 = default)")
		evalEvery   = flag.Duration("eval-interval", 0, "elastic controller period (0 = default)")

		nodeID        = flag.String("node-id", "", "cluster node id (enables replication)")
		advertise     = flag.String("advertise", "", "address other nodes reach this one at (default: listen addr)")
		replicaOf     = flag.String("replicaof", "", "start as a replica of host:port")
		coordinator   = flag.String("coordinator", "", "coordinator address to register with and heartbeat to")
		semiSyncAcks  = flag.Int("semisync-acks", 0, "replicas that must ack each write (0 = async)")
		ackTimeout    = flag.Duration("ack-timeout", 0, "semi-sync wait bound (0 = default 2s)")
		replLogCap    = flag.Int("repl-log-cap", 0, "retained op-log window (0 = default)")
		heartbeatTick = flag.Duration("heartbeat-interval", 0, "coordinator heartbeat period (0 = default 500ms)")

		replWriteTimeout = flag.Duration("repl-write-timeout", 0, "per-frame replication write bound (0 = default 5s)")
		replKeepalive    = flag.Duration("repl-keepalive", 0, "master->replica ping period (0 = default 1s)")
		replReadTimeout  = flag.Duration("repl-read-timeout", 0, "replication link read bound (0 = default 4x keepalive)")
		shedBacklog      = flag.Int("shed-backlog", 0, "unacked-op backlog that sheds a laggard replica (0 = default log-cap/2, negative disables)")
		snapChunkBytes   = flag.Int("snapshot-chunk-bytes", 0, "full-sync snapshot bytes buffered per chunk (0 = default 1MiB)")

		maxConns       = flag.Int("max-conns", 0, "client connection cap, excess refused with -MAXCONN (0 = unlimited)")
		maxOutputBytes = flag.Int("max-output-bytes", 0, "per-connection reply buffer cap before the client is shed (0 = default 32MiB, negative disables)")
		readTimeout    = flag.Duration("read-timeout", 0, "idle/partial-command read bound per connection (0 = disabled)")
		writeTimeout   = flag.Duration("write-timeout", 0, "reply flush bound before a slow reader is shed (0 = default 30s, negative disables)")
		highWatermark  = flag.Int64("high-watermark-bytes", 0, "memory level at which writes fail fast with -OVERLOADED (0 = watermark gate off)")
		lowWatermark   = flag.Int64("low-watermark-bytes", 0, "memory level at which writes resume (0 = 90% of high)")
		drainTimeout   = flag.Duration("drain-timeout", 0, "graceful-drain bound on SIGTERM before remaining connections are cut (0 = default 10s)")
	)
	flag.Parse()

	cfg, err := stackFlags(*policy, *dir, *cacheBytes, *compression, *trainOn)
	if err != nil {
		log.Fatalf("tierbase-server: %v", err)
	}
	eo, err := stack.NewEngine(cfg)
	if err != nil {
		log.Fatalf("tierbase-server: %v", err)
	}
	if c := eo.Options.Compressor; c != nil {
		log.Printf("compression: %s pre-trained on %s samples", c.Name(), workload.DatasetByName(*trainOn).Name())
	}

	// Everything the process needs lives in one validated server.Config.
	opts := server.Config{
		Addr:          *addr,
		Shards:        *shards,
		EngineOptions: eo.Options,
		Pool: elastic.PoolOptions{
			MaxWorkers:      *maxWorkers,
			BoostQueueDepth: *boostDepth,
			QueueSize:       *queueSize,
			CooldownTicks:   *cooldown,
			EvalInterval:    *evalEvery,
		},
		Replication: server.ReplicationConfig{
			NodeID:             *nodeID,
			AdvertiseAddr:      *advertise,
			MasterAddr:         *replicaOf,
			CoordinatorAddr:    *coordinator,
			SemiSyncAcks:       *semiSyncAcks,
			AckTimeout:         *ackTimeout,
			LogCap:             *replLogCap,
			HeartbeatInterval:  *heartbeatTick,
			WriteTimeout:       *replWriteTimeout,
			KeepaliveInterval:  *replKeepalive,
			ReadTimeout:        *replReadTimeout,
			ShedBacklog:        *shedBacklog,
			SnapshotChunkBytes: *snapChunkBytes,
		},
		Overload: server.OverloadConfig{
			MaxConns:           *maxConns,
			MaxOutputBytes:     *maxOutputBytes,
			ReadTimeout:        *readTimeout,
			WriteTimeout:       *writeTimeout,
			HighWatermarkBytes: *highWatermark,
			LowWatermarkBytes:  *lowWatermark,
			DrainTimeout:       *drainTimeout,
		},
	}
	if !*elasticOn {
		opts.Pool.Fixed = 1
	}
	if err := opts.Validate(); err != nil {
		log.Fatalf("tierbase-server: %v", err)
	}

	tiers := &shardStacks{cfg: cfg, dir: *dir}
	if cfg.Policy != cache.CacheOnly {
		opts.TieredFactory = tiers.factory
		opts.StorageStats = tiers.stats
	}

	srv, err := server.Start(opts)
	if err != nil {
		log.Fatalf("tierbase-server: %v", err)
	}
	role := ""
	if *nodeID != "" {
		role = " as master " + *nodeID
		if *replicaOf != "" {
			role = fmt.Sprintf(" as replica %s of %s", *nodeID, *replicaOf)
		}
	}
	log.Printf("tierbase-server listening on %s (%d shards, %s policy)%s", srv.Addr(), *shards, *policy, role)

	// Periodic monitor line (the Monitor component of §3).
	go func() {
		for range time.Tick(10 * time.Second) {
			log.Printf("throughput=%.0f/s p99=%s", srv.Throughput.Rate(), time.Duration(srv.Latency.P99()))
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	if s == syscall.SIGTERM {
		// Graceful drain: deregister from the coordinator, stop
		// accepting, finish in-flight commands, flush write-back dirty
		// state, then close. SIGINT keeps the fast path for interactive
		// kills.
		log.Print("draining (SIGTERM)")
		if err := srv.Shutdown(); err != nil {
			log.Printf("shutdown: %v", err)
		}
	} else {
		log.Print("shutting down")
		if err := srv.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
	// Close the storage tier AFTER the server: srv.Close flushes each
	// shard's write-back dirty set into the LSM, and the LSM's Close syncs
	// the WAL — without it, the last SyncEvery window of flushed writes
	// sits in an unsynced WAL buffer and dies with the process.
	for _, st := range tiers.stacks {
		if err := st.Close(); err != nil {
			log.Printf("lsm close: %v", err)
		}
	}
}
