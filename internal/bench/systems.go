package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/compress"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/pmem"
	"tierbase/internal/wal"
	"tierbase/internal/workload"
)

// TBConfig selects a TierBase configuration — the knobs the paper's
// experiments sweep (§6.4.1 naming: -s/-e/-m threading, -PMem, -Zstd/-PBC,
// -WAL/-WAL-PMem, -wt-NX/-wb-NX).
type TBConfig struct {
	Name string
	// Threads: 1 = single (-s), 0 = elastic (-e), n>1 = fixed multi (-m).
	Threads int
	// Compressor: "", "pbc", "zstd-d" (deflate-dict), "zstd-b" (deflate).
	Compressor string
	// CompressLevel for deflate variants (0 = default).
	CompressLevel int
	// TrainOn pre-trains the compressor (required for pbc/zstd-d).
	TrainOn workload.Dataset
	// PMem enables the DRAM-extension arena for values.
	PMem bool
	// PMemLatency injects access costs (zero = fast simulation).
	PMemLatency pmem.Latency
	// Persist: "" (pure cache), "wal", "wal-pmem", "wt", "wb".
	Persist string
	// CacheRatioX for wt/wb: data-to-cache ratio (e.g. 5 = cache holds
	// 1/X of the data). 0 = unbounded cache.
	CacheRatioX int
	// ExpectedLogicalBytes sizes the cache for CacheRatioX.
	ExpectedLogicalBytes int64
	// Replicas is how many cache-tier replica instances the deployment
	// runs beside the primary (dual-replica reliability). A replica mirrors
	// the primary, so MemBytes/PMemBytes count it as one more instance.
	Replicas int
	// RTT models the disaggregation hop to the storage tier.
	RTT time.Duration
	// OpCost injects per-operation request-processing CPU cost (command
	// parsing, dispatch, response encoding at production scale). fig9
	// uses ~10µs to place single-thread capacity near the paper's
	// ~100 kQPS/core operating point.
	OpCost time.Duration
}

// spin busy-waits (models CPU work, unlike time.Sleep which yields).
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// TBSystem is a fully wired TierBase instance for the harness. It
// implements the same surface as baselines.System.
type TBSystem struct {
	name     string
	pool     *elastic.Pool
	eng      *engine.Engine
	replicas int
	tiered   *cache.Tiered
	remote   *cache.Remote
	db       *lsm.DB
	wlog     wal.Appender
	arena    *pmem.Arena
	pmemDev  *pmem.Device
	comp     compress.Compressor
	opCost   time.Duration
}

// BuildTierBase wires a TierBase configuration. dir is used by persistent
// modes for the LSM store / WAL files.
func BuildTierBase(cfg TBConfig, dir string) (*TBSystem, error) {
	s := &TBSystem{name: cfg.Name, opCost: cfg.OpCost, replicas: cfg.Replicas}
	if s.name == "" {
		s.name = "tierbase"
	}

	// Compression.
	engOpts := engine.Options{}
	if cfg.Compressor != "" {
		c, err := compress.ByName(cfg.Compressor, cfg.CompressLevel)
		if err != nil {
			return nil, err
		}
		if cfg.TrainOn != nil {
			if err := c.Train(workload.Sample(cfg.TrainOn, 500)); err != nil {
				return nil, err
			}
		}
		engOpts.Compressor = c
		engOpts.CompressMin = 16
		s.comp = c
	}

	// PMem arena.
	if cfg.PMem {
		s.pmemDev = pmem.OpenVolatile(256<<20, cfg.PMemLatency)
		s.arena = pmem.NewArena(s.pmemDev, 0)
		engOpts.Arena = s.arena
		engOpts.PMemMin = 64
	}

	s.eng = engine.New(engOpts)

	// Threading.
	poolOpts := elastic.PoolOptions{MaxWorkers: 4}
	switch {
	case cfg.Threads == 1:
		poolOpts.Fixed = 1
	case cfg.Threads > 1:
		poolOpts.Fixed = cfg.Threads
	default:
		poolOpts.EvalInterval = 5 * time.Millisecond
		// Clients submit synchronously, so backlog equals the number of
		// blocked connections; a handful of waiters already signals that
		// the single worker is saturated.
		poolOpts.BoostQueueDepth = 4
		poolOpts.CooldownTicks = 40
	}
	s.pool = elastic.NewPool(poolOpts)

	// Persistence.
	switch cfg.Persist {
	case "":
		tr, err := cache.New(cache.Options{Policy: cache.CacheOnly, Engine: s.eng})
		if err != nil {
			return nil, err
		}
		s.tiered = tr
	case "wal":
		log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncInterval})
		if err != nil {
			return nil, err
		}
		s.wlog = log
		tr, err := cache.New(cache.Options{Policy: cache.CacheOnly, Engine: s.eng})
		if err != nil {
			return nil, err
		}
		s.tiered = tr
	case "wal-pmem":
		dev := pmem.OpenVolatile(8<<20, cfg.PMemLatency)
		ring, err := pmem.NewRing(dev)
		if err != nil {
			return nil, err
		}
		back, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncNever})
		if err != nil {
			return nil, err
		}
		s.wlog = wal.NewPMemLog(ring, back)
		tr, err := cache.New(cache.Options{Policy: cache.CacheOnly, Engine: s.eng})
		if err != nil {
			return nil, err
		}
		s.tiered = tr
	case "wt", "wb":
		db, err := lsm.Open(lsm.Options{
			Dir: filepath.Join(dir, "lsm"), MemtableBytes: 4 << 20,
			WALSyncPolicy: wal.SyncInterval,
		})
		if err != nil {
			return nil, err
		}
		s.db = db
		s.remote = cache.NewRemote(cache.NewLSMStorage(db), cfg.RTT)
		var capBytes int64
		if cfg.CacheRatioX > 0 && cfg.ExpectedLogicalBytes > 0 {
			// Physical cache budget for 1/X of the data, with engine
			// overhead headroom.
			capBytes = int64(float64(cfg.ExpectedLogicalBytes) / float64(cfg.CacheRatioX) * 1.6)
		}
		policy := cache.WriteThrough
		if cfg.Persist == "wb" {
			policy = cache.WriteBack
		}
		tr, err := cache.New(cache.Options{
			Policy: policy, Engine: s.eng, Storage: s.remote, CacheCapacityBytes: capBytes,
			FlushBatch: 64, FlushInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		s.tiered = tr
	default:
		return nil, fmt.Errorf("bench: unknown persist mode %q", cfg.Persist)
	}
	return s, nil
}

// Name implements the system surface.
func (s *TBSystem) Name() string { return s.name }

// Set routes a write through the threading pool and persistence path.
// Tiered configurations issue the storage-tier round trip off the event
// loop: the paper's write-through design keeps the loop responsive via
// the temporary update buffer while the storage write is in flight, so
// only the in-memory command cost occupies a worker.
func (s *TBSystem) Set(key string, val []byte) error {
	var err error
	perr := s.pool.SubmitWait(func() {
		spin(s.opCost)
		if s.wlog != nil {
			rec := make([]byte, 0, len(key)+len(val)+8)
			rec = append(rec, 'S')
			rec = append(rec, byte(len(key)), byte(len(key)>>8))
			rec = append(rec, key...)
			rec = append(rec, val...)
			if err = s.wlog.Append(rec); err != nil {
				return
			}
		}
		if s.remote == nil {
			err = s.tiered.Set(key, val)
		}
	})
	if perr != nil {
		return perr
	}
	if err == nil && s.remote != nil {
		err = s.tiered.Set(key, val)
	}
	return err
}

// Get routes a read through the threading pool; storage-tier misses
// resolve off the loop (see Set).
func (s *TBSystem) Get(key string) ([]byte, error) {
	var v []byte
	var err error
	perr := s.pool.SubmitWait(func() {
		spin(s.opCost)
		if s.remote == nil {
			v, err = s.tiered.Get(key)
		}
	})
	if perr != nil {
		return nil, perr
	}
	if s.remote != nil {
		v, err = s.tiered.Get(key)
	}
	return v, err
}

// Delete routes a delete through the threading pool.
func (s *TBSystem) Delete(key string) error {
	var err error
	perr := s.pool.SubmitWait(func() {
		spin(s.opCost)
		if s.wlog != nil {
			rec := append([]byte{'D'}, key...)
			if err = s.wlog.Append(rec); err != nil {
				return
			}
		}
		if s.remote == nil {
			err = s.tiered.Delete(key)
		}
	})
	if perr != nil {
		return perr
	}
	if err == nil && s.remote != nil {
		err = s.tiered.Delete(key)
	}
	return err
}

// MemBytes sums DRAM across primary and replicas.
func (s *TBSystem) MemBytes() int64 {
	return s.eng.MemUsed() * int64(1+s.replicas)
}

// PMemBytes reports persistent-memory bytes in use.
func (s *TBSystem) PMemBytes() int64 {
	if s.arena == nil {
		return 0
	}
	return s.arena.Used() * int64(1+s.replicas)
}

// DiskBytes reports storage-tier bytes.
func (s *TBSystem) DiskBytes() int64 {
	if s.db != nil {
		return s.db.Stats().DiskBytes
	}
	if s.wlog != nil {
		// AOF-style: post-rewrite log ≈ dataset size.
		return s.eng.MemUsed()
	}
	return 0
}

// Tiered exposes the tiered store (MR stats).
func (s *TBSystem) Tiered() *cache.Tiered { return s.tiered }

// Pool exposes the elastic pool (mode observation).
func (s *TBSystem) Pool() *elastic.Pool { return s.pool }

// Remote exposes storage-tier RPC stats (nil for cache-only).
func (s *TBSystem) Remote() *cache.Remote { return s.remote }

// FlushDirty drains write-back dirty data (checkpoint for measurement).
func (s *TBSystem) FlushDirty() error {
	if s.tiered != nil {
		return s.tiered.FlushDirty()
	}
	return nil
}

// Close releases all resources.
func (s *TBSystem) Close() error {
	s.pool.Stop()
	var first error
	if s.tiered != nil {
		if err := s.tiered.Close(); err != nil {
			first = err
		}
	}
	if s.wlog != nil {
		if err := s.wlog.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.db != nil {
		if err := s.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// measureOverhead loads n records of ds into an engine configured like
// cfg and returns physical-DRAM-per-logical-byte and PMem-per-logical
// ratios. This feeds MaxSpace estimation without loading full datasets.
func measureOverhead(cfg TBConfig, ds workload.Dataset, n int) (dramRatio, pmemRatio float64, err error) {
	probe := cfg
	probe.Persist = ""
	probe.Replicas = 0
	probe.Threads = 1
	probe.Name = "probe"
	probe.PMemLatency = pmem.Latency{} // capacity probing needs no latency
	sys, err := BuildTierBase(probe, "")
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	var logical int64
	for i := 0; i < n; i++ {
		rec := ds.Record(int64(i))
		key := fmt.Sprintf("probe%09d", i)
		logical += int64(len(rec)) + int64(len(key))
		if err := sys.Set(key, rec); err != nil {
			return 0, 0, err
		}
	}
	if logical == 0 {
		return 1, 0, nil
	}
	return float64(sys.MemBytes()) / float64(logical),
		float64(sys.PMemBytes()) / float64(logical), nil
}
