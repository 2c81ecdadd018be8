package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"tierbase/internal/baselines"
	"tierbase/internal/cache"
	"tierbase/internal/elastic"
	"tierbase/internal/pmem"
	"tierbase/internal/stack"
	"tierbase/internal/wal"
	"tierbase/internal/workload"
)

// TBConfig selects a TierBase configuration — the knobs the paper's
// experiments sweep (§6.4.1 naming: -s/-e/-m threading, -PMem, -Zstd/-PBC,
// -WAL/-WAL-PMem, -wt-NX/-wb-NX).
type TBConfig struct {
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
	// Persist: "" (pure cache), "wal", "wal-pmem", "wt", "wb".
	Persist string
	// CacheRatioX for wt/wb: data-to-cache ratio (e.g. 5 = cache holds
	// 1/X of the data). 0 = unbounded cache.
	CacheRatioX float64
	// ExpectedLogicalBytes sizes the cache for CacheRatioX.
	ExpectedLogicalBytes int64
	// OpCost injects per-operation request-processing CPU cost (command
	// parsing, dispatch, response encoding at production scale). fig9
	// uses ~10µs to place single-thread capacity near the paper's
	// ~100 kQPS/core operating point.
	OpCost time.Duration
}

// missRTT is the injected cache→storage round trip for tiered
// configurations. It is calibrated to the paper's *relative* miss-penalty
// regime rather than an absolute network RTT: the paper's cache ops cost
// ~10µs (≈100 kQPS/core) and its optimized miss path a small multiple of
// that; our in-process cache ops cost ~2.5µs, so 25µs keeps
// PC_miss/PC_cache in the same ≈6-10× band (see the package doc's scaling
// note).
const missRTT = 25 * time.Microsecond

// stackConfig maps a row onto the builder's options; dir hosts the LSM of
// the wt/wb rows, which reach it over missRTT. The wal rows are cache-only
// stacks: their log is the harness's own (see BuildTierBase).
func (cfg TBConfig) stackConfig(dir string) (stack.Config, error) {
	c := stack.Config{Compression: cfg.Compressor, CompressionLevel: cfg.CompressLevel}
	if cfg.TrainOn != nil {
		c.TrainingSamples = workload.Sample(cfg.TrainOn, 500)
	}
	if cfg.PMem {
		c.PMemBytes = 256 << 20
	}
	switch cfg.Persist {
	case "", "wal", "wal-pmem":
	case "wt", "wb":
		c.Policy = cache.WriteThrough
		if cfg.Persist == "wb" {
			c.Policy = cache.WriteBack
		}
		c.Dir = filepath.Join(dir, "lsm")
		c.StorageRTT = missRTT
		if cfg.CacheRatioX > 0 && cfg.ExpectedLogicalBytes > 0 {
			// Physical cache budget for 1/X of the data, with engine
			// overhead headroom.
			c.CacheBytes = int64(float64(cfg.ExpectedLogicalBytes) / cfg.CacheRatioX * 1.6)
		}
	default:
		return c, fmt.Errorf("bench: unknown persist mode %q", cfg.Persist)
	}
	return c, nil
}

// TBSystem is a TierBase configuration as the harness drives it: the
// shipping stack (internal/stack) on an elastic pool, plus what is the
// harness's own — the dispatch model, the wal/wal-pmem rows' log and the
// per-op CPU cost. It implements baselines.System.
type TBSystem struct {
	pool   *elastic.Pool
	st     *stack.Stack
	wlog   appendLog
	opCost time.Duration
}

// BuildTierBase wires a TierBase configuration. dir is used by persistent
// modes for the LSM store / WAL files.
func BuildTierBase(cfg TBConfig, dir string) (*TBSystem, error) {
	c, err := cfg.stackConfig(dir)
	if err != nil {
		return nil, err
	}
	st, err := stack.Open(c)
	if err != nil {
		return nil, err
	}
	s := &TBSystem{st: st, opCost: cfg.OpCost}
	if s.wlog, err = openLog(cfg.Persist, dir); err != nil {
		st.Close()
		return nil, err
	}
	s.pool = elastic.NewPool(elastic.PoolOptions{Fixed: cfg.Threads})
	return s, nil
}

// appendLog is what the wal rows do with their log: append each write's
// record, and close.
type appendLog interface {
	Append(payload []byte) error
	Close() error
}

// openLog opens the wal rows' AOF-style log in dir: on disk, or staged in
// a PMem ring in front of an unsynced disk log. Other rows have none.
func openLog(persist, dir string) (appendLog, error) {
	switch persist {
	case "wal":
		return wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncInterval})
	case "wal-pmem":
		back, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncNever})
		if err != nil {
			return nil, err
		}
		ring := pmem.NewRing(pmem.OpenVolatile(8<<20, pmem.DefaultLatency))
		return wal.NewPMemLog(ring, back), nil
	}
	return nil, nil
}

// do is the harness's dispatch model (see the package doc). A row without
// a storage tier runs the whole op on the pool: its CPU cost, the wal rows'
// log append of rec, and the tiered call. A tiered row runs only its CPU
// cost on the pool, an empty task for every wt/wb row, and its whole tiered
// call off it, on the caller: the engine lookup as well as the storage
// round trip.
func (s *TBSystem) do(rec []byte, op func() error) error {
	offPool := s.st.DB != nil
	var err error
	perr := s.pool.SubmitWait(func() {
		baselines.Spin(s.opCost)
		if s.wlog != nil && rec != nil {
			if err = s.wlog.Append(rec); err != nil {
				return
			}
		}
		if !offPool {
			err = op()
		}
	})
	if perr != nil {
		return perr
	}
	if err == nil && offPool {
		err = op()
	}
	return err
}

// Set stores key = val; the wal rows log it first.
func (s *TBSystem) Set(key string, val []byte) error {
	var rec []byte
	if s.wlog != nil {
		rec = baselines.EncodeAOF(key, val)
	}
	return s.do(rec, func() error { return s.st.Set(key, val) })
}

// Get fetches key.
func (s *TBSystem) Get(key string) (v []byte, err error) {
	err = s.do(nil, func() (err error) { v, err = s.st.Get(key); return })
	return v, err
}

// MemBytes reports DRAM bytes in use.
func (s *TBSystem) MemBytes() int64 { return s.st.Engine().MemUsed() }

// DiskBytes reports storage-tier bytes.
func (s *TBSystem) DiskBytes() int64 {
	if s.st.DB != nil {
		return s.st.DB.Stats().DiskBytes
	}
	if s.wlog != nil {
		// AOF-style: post-rewrite log ≈ dataset size.
		return s.st.Engine().MemUsed()
	}
	return 0
}

// Close releases all resources.
func (s *TBSystem) Close() error {
	s.pool.Stop()
	err := s.st.Close()
	if s.wlog != nil {
		if werr := s.wlog.Close(); err == nil {
			err = werr
		}
	}
	return err
}
