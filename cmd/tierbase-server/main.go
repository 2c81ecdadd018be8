// Command tierbase-server runs one TierBase data node behind a RESP server
// (Redis-compatible wire protocol) with configurable tiering policy,
// compression and elastic threading.
//
// Usage:
//
//	tierbase-server -addr :6380 -policy write-back -dir /data/tb
//	redis-cli -p 6380 SET greeting hello
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tierbase/internal/cache"
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

// stackFlags maps the storage flags onto the node's stack, its LSM at -dir
// itself; the compressor is pre-trained on 500 records of the -train-on
// dataset, which must be one the workload package knows.
func stackFlags(policy, dir string, cacheBytes int64, compression, trainOn string) (stack.Config, error) {
	p, err := tieringFlags(policy, dir, cacheBytes)
	if err != nil {
		return stack.Config{}, err
	}
	ds, err := workload.ParseDataset(trainOn)
	if err != nil {
		return stack.Config{}, fmt.Errorf("-train-on: %w", err)
	}
	c := stack.Config{Policy: p, Dir: dir, CacheBytes: cacheBytes, Compression: compression}
	if compression != "" {
		c.TrainingSamples = workload.Sample(ds, 500)
	}
	return c, nil
}

// wireStorage puts c's storage tier behind the node: server.Start builds
// the node's engine and the factory opens the LSM at c.Dir over it. The
// returned func closes the stack; call it after the server has closed, so
// write-back dirty keys reach the LSM before its WAL syncs.
func wireStorage(opts *server.Config, c stack.Config) (closeStorage func() error) {
	var st *stack.Stack
	opts.TieredFactory = func(eng *engine.Engine) (*cache.Tiered, error) {
		var err error
		if st, err = stack.NewTiered(c, eng); err != nil {
			return nil, err
		}
		return st.Tiered, nil
	}
	opts.StorageStats = func() []lsm.Stats { return []lsm.Stats{st.DB.Stats()} }
	return func() error { return st.Close() }
}

func main() {
	// Everything the process needs lives in one validated server.Config;
	// the flags that set one of its fields write it directly.
	var opts server.Config
	var (
		policy      = flag.String("policy", "cache-only", "cache-only | write-through | write-back")
		dir         = flag.String("dir", "", "storage-tier directory (tiered policies)")
		compression = flag.String("compression", "", "value compressor: pbc | zstd-d | zstd-b")
		trainOn     = flag.String("train-on", "kv1", "dataset for compressor pre-training: cities | kv1 | kv2 | random")
		elasticOn   = flag.Bool("elastic", true, "enable elastic threading")
		cacheBytes  = flag.Int64("cache-bytes", 0, "cache-tier capacity, tiered policies only (0 = unbounded)")
	)
	flag.StringVar(&opts.Addr, "addr", "127.0.0.1:6380", "listen address")
	flag.IntVar(&opts.Pool.MaxWorkers, "max-workers", 4, "elastic gate's slot ceiling: the node's CPU budget")

	r := &opts.Replication
	flag.StringVar(&r.NodeID, "node-id", "", "cluster node id (enables replication)")
	flag.StringVar(&r.AdvertiseAddr, "advertise", "", "address other nodes reach this one at (default: listen addr)")
	flag.StringVar(&r.MasterAddr, "replicaof", "", "start as a replica of host:port")
	flag.StringVar(&r.CoordinatorAddr, "coordinator", "", "coordinator address to register with and heartbeat to")
	flag.IntVar(&r.SemiSyncAcks, "semisync-acks", 0, "replicas that must ack each write (0 = async)")
	flag.DurationVar(&r.AckTimeout, "ack-timeout", 0, "semi-sync wait bound (0 = default 2s)")
	flag.IntVar(&r.LogCap, "repl-log-cap", 0, "retained op-log window (0 = default)")
	flag.DurationVar(&r.HeartbeatInterval, "heartbeat-interval", 0, "coordinator heartbeat period (0 = default 500ms)")
	flag.DurationVar(&r.WriteTimeout, "repl-write-timeout", 0, "per-frame replication write bound (0 = default 5s)")
	flag.DurationVar(&r.KeepaliveInterval, "repl-keepalive", 0, "master->replica ping period (0 = default 1s)")
	flag.DurationVar(&r.ReadTimeout, "repl-read-timeout", 0, "replication link read bound (0 = default 4x keepalive)")
	flag.IntVar(&r.ShedBacklog, "shed-backlog", 0, "unacked-op backlog that sheds a laggard replica (0 = default log-cap/2, negative disables)")

	o := &opts.Overload
	flag.IntVar(&o.MaxConns, "max-conns", 0, "client connection cap, excess refused with -MAXCONN (0 = unlimited)")
	flag.IntVar(&o.MaxOutputBytes, "max-output-bytes", 0, "per-connection reply buffer cap before the client is shed (0 = default 32MiB, negative disables)")
	flag.DurationVar(&o.ReadTimeout, "read-timeout", 0, "idle/partial-command read bound per connection (0 = disabled)")
	flag.DurationVar(&o.WriteTimeout, "write-timeout", 0, "reply flush bound before a slow reader is shed (0 = default 30s, negative disables)")
	flag.Int64Var(&o.HighWatermarkBytes, "high-watermark-bytes", 0, "memory level at which writes fail fast with -OVERLOADED (0 = watermark gate off)")
	flag.Int64Var(&o.LowWatermarkBytes, "low-watermark-bytes", 0, "memory level at which writes resume (0 = 90% of high)")
	flag.DurationVar(&o.DrainTimeout, "drain-timeout", 0, "graceful-drain bound on SIGTERM before remaining connections are cut (0 = default 10s)")
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
		log.Printf("compression: %s pre-trained on %s samples", c.Name(), *trainOn)
	}

	opts.EngineOptions = eo.Options
	if !*elasticOn {
		opts.Pool.Fixed = 1
	}
	if err := opts.Validate(); err != nil {
		log.Fatalf("tierbase-server: %v", err)
	}

	closeStorage := func() error { return nil }
	if cfg.Policy != cache.CacheOnly {
		closeStorage = wireStorage(&opts, cfg)
	}

	srv, err := server.Start(opts)
	if err != nil {
		log.Fatalf("tierbase-server: %v", err)
	}
	role := ""
	if r.NodeID != "" {
		role = " as master " + r.NodeID
		if r.MasterAddr != "" {
			role = fmt.Sprintf(" as replica %s of %s", r.NodeID, r.MasterAddr)
		}
	}
	log.Printf("tierbase-server listening on %s (%s policy)%s", srv.Addr(), *policy, role)

	// Periodic monitor line (the Monitor component of §3): commands
	// completed per second over the last window, and p99 since start.
	go func() {
		const window = 10 * time.Second
		var done int64
		for range time.Tick(window) {
			n := srv.Latency.Count()
			log.Printf("throughput=%.0f/s p99=%s", float64(n-done)/window.Seconds(), time.Duration(srv.Latency.P99()))
			done = n
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
	// Close the storage tier AFTER the server: srv.Close flushes the
	// write-back dirty set into the LSM, and the LSM's Close syncs the WAL
	// — without it, the last SyncEvery window of flushed writes sits in an
	// unsynced WAL buffer and dies with the process.
	if err := closeStorage(); err != nil {
		log.Printf("lsm close: %v", err)
	}
}
