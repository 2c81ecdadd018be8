package main

import (
	"path/filepath"

	"tierbase/internal/cache"
	"tierbase/internal/compress"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/server"
	"tierbase/internal/wal"
	"tierbase/internal/workload"
)

// stackNode is one tierbase-server built inside the benchmark process, with
// the handles the traced run reads stats from.
type stackNode struct {
	srv    *server.Server
	db     *lsm.DB
	wlog   *wal.Log
	tiered *cache.Tiered
}

// buildNode assembles what `tierbase-server <spec.serverArgs(...)>` assembles,
// with the recorder's timing wrappers at the five seams. It mirrors the
// flag -> server.Config / cache.Options / lsm.Options mapping of
// cmd/tierbase-server/main.go line for line: flags serverArgs does not pass
// keep main.go's flag defaults (-shards 1, -max-workers 4, -elastic true).
// Keep the two in step; when ROADMAP's single stack builder lands it
// replaces this function.
func buildNode(s spec, dir, nodeID, replicaOf string, rec *recorder) (*stackNode, error) {
	n := &stackNode{}

	engOpts := engine.Options{}
	if s.compression { // -compression pbc -train-on kv1
		c, err := compress.ByName("pbc", 0)
		if err != nil {
			return nil, err
		}
		if err := c.Train(workload.Sample(workload.DatasetByName("kv1"), 500)); err != nil {
			return nil, err
		}
		engOpts.Compressor = tracedCompressor{c, rec}
		engOpts.CompressMin = 16
	}

	cfg := server.Config{
		Addr:          "127.0.0.1:0",
		Shards:        1,
		EngineOptions: engOpts,
		Pool:          elastic.PoolOptions{MaxWorkers: 4},
		WrapConn:      rec.wrapServerConn,
	}
	if s.replicated { // -node-id, then -replicaof or -semisync-acks 1
		cfg.Replication = server.ReplicationConfig{NodeID: nodeID, MasterAddr: replicaOf, Dialer: rec.dialer}
		if replicaOf == "" {
			cfg.Replication.SemiSyncAcks = 1
		}
	}

	policy := map[string]cache.Policy{"write-through": cache.WriteThrough, "write-back": cache.WriteBack}[s.policy]
	cfg.TieredFactory = func(eng *engine.Engine) (*cache.Tiered, error) {
		store := &tracedStorage{rec: rec, writeBack: policy == cache.WriteBack}
		store.bg.Store(noSpan)
		db, err := lsm.Open(lsm.Options{
			Dir:           filepath.Join(dir, "shard000"),
			WALSyncPolicy: wal.SyncInterval,
			// lsm.Open's own default, wrapped.
			WALFactory: func(walDir string) (wal.Appender, error) {
				l, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncInterval})
				if err != nil {
					return nil, err
				}
				n.wlog = l
				return &tracedWAL{Log: l, rec: rec, store: store}, nil
			},
		})
		if err != nil {
			return nil, err
		}
		n.db = db
		store.Storage = cache.NewLSMStorage(db)
		n.tiered, err = cache.New(cache.Options{
			Policy:             policy,
			Engine:             eng,
			Storage:            store,
			CacheCapacityBytes: s.cacheBytes(),
		})
		return n.tiered, err
	}
	cfg.StorageStats = func() []lsm.Stats { return []lsm.Stats{n.db.Stats()} }

	var err error
	if n.srv, err = server.Start(cfg); err != nil {
		if n.db != nil {
			n.db.Close()
		}
		return nil, err
	}
	return n, nil
}

// close drains the server as SIGTERM does, then closes the storage tier.
func (n *stackNode) close() error {
	err := n.srv.Shutdown()
	if cerr := n.db.Close(); err == nil {
		err = cerr
	}
	return err
}
