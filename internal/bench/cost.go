package bench

import (
	"fmt"
	"path/filepath"
	"sync"

	"tierbase/internal/baselines"
	"tierbase/internal/core"
	"tierbase/internal/lsm"
	"tierbase/internal/workload"
)

// Instances the cost experiments price on (§6.1/§6.4.1): the standard
// container is 1 core + 4 GB at relative cost 1. Multi-thread systems and
// persistent databases get 4 cores + 16 GB (cost 4). PMem containers add
// byte-addressable persistent memory at a fraction of DRAM's $/GB
// (Optane listed ~1/3-1/4 of DRAM per GB; we price the 4G+12P container
// at 1.25 standard units). Storage-tier containers are disk-heavy.
var (
	cacheInst = core.Instance{Name: "cache-1c4g", Cost: 1, CPUCores: 1, MemoryGB: 4}
	pmemInst  = core.Instance{Name: "pmem-1c4g12p", Cost: 1.25, CPUCores: 1, MemoryGB: 4, PMemGB: 12}
	bigInst   = core.Instance{Name: "big-4c16g", Cost: 4, CPUCores: 4, MemoryGB: 16, DiskGB: 128}
	storInst  = core.Instance{Name: "stor-1c4g256d", Cost: 1, CPUCores: 1, MemoryGB: 4, DiskGB: 256}
)

// costSUT is one measured system-under-test of a cost experiment: its
// throughput on its instance and its footprint there.
type costSUT struct {
	name   string
	inst   core.Instance
	qps    float64
	fp     core.Footprint
	tiered bool    // the storage tier runs on storInst
	mr     float64 // measured miss ratio (tiered configs)
}

// measured is the row per unit of its instance's cost, as core prices it.
func (s costSUT) measured() core.Measured {
	if s.tiered {
		return core.TieredPerCostUnit(s.name, s.qps, s.fp, s.inst, storInst)
	}
	return core.PerCostUnit(s.name, s.qps, s.fp, s.inst)
}

// price evaluates every row, in order, for a workload of declQPS and
// declDataGB, with core.DefaultTolerance's headroom.
func price(suts []costSUT, declQPS, declDataGB float64) []core.Evaluation {
	ms := make([]core.Measured, len(suts))
	for i, s := range suts {
		ms[i] = core.DefaultTolerance.Apply(s.measured())
	}
	return core.Evaluate(core.Workload{QPS: declQPS, DataSizeGB: declDataGB}, core.StandardContainer, ms)
}

// row is one system a figure measures and prices: its label, the
// instance it is priced on, how many replicas a deployment runs beside the
// primary, and what it is — a TierBase configuration, or, when tb is nil,
// the baseline baselines.Build builds under the row's name.
type row struct {
	name     string
	inst     core.Instance
	replicas int
	tb       *TBConfig
}

// open builds r's system, its persistent files under dir.
func (r row) open(dir string) (baselines.System, error) {
	if r.tb == nil {
		return baselines.Build(r.name, dir)
	}
	return BuildTierBase(*r.tb, dir)
}

// measureRows is §5.3's loop over a figure's rows, in order, each on the
// same load and replay from workers, persistent ones under dir/<name>. A
// replica mirrors its primary, so it counts once more on DRAM and on PMem:
// this is the one place replicas are counted.
func measureRows(rows []row, dir string, load, run []workload.Op, workers int) ([]costSUT, error) {
	suts := make([]costSUT, len(rows))
	for i, r := range rows {
		s, err := measure(r, filepath.Join(dir, r.name), load, run, workers)
		if err != nil {
			return nil, err
		}
		s.fp.DRAM *= float64(1 + r.replicas)
		s.fp.PMem *= float64(1 + r.replicas)
		suts[i] = s
	}
	return suts, nil
}

// measure is one row's lifecycle: open it, load the snapshot, settle it,
// replay run over workers and read its throughput and footprint. A
// write-back row first flushes what the replay left dirty, so its disk
// holds every write. A row whose replay failed ops is refused, since ops
// that fail fast would price it as the fastest row.
func measure(r row, dir string, load, run []workload.Op, workers int) (s costSUT, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %w", r.name, err)
		}
	}()
	sys, err := r.open(dir)
	if err != nil {
		return costSUT{}, err
	}
	defer sys.Close()
	for _, op := range load {
		if err := sys.Set(op.Key, op.Value); err != nil {
			return costSUT{}, err
		}
	}
	if err := settle(sys); err != nil {
		return costSUT{}, err
	}
	dr := drive(sys, run, workers)
	if dr.Errors > 0 {
		return costSUT{}, fmt.Errorf("%d of %d ops failed", dr.Errors, len(run))
	}
	s = costSUT{name: r.name, inst: r.inst, qps: dr.QPS}
	logical := float64(logicalBytes(load))
	if tb, ok := sys.(*TBSystem); ok {
		if err := tb.st.FlushDirty(); err != nil {
			return costSUT{}, err
		}
		s.fp.PMem = float64(tb.st.Engine().Stats().PMemUsed) / logical
		s.tiered, s.mr = tb.st.DB != nil, tb.st.MissRatio()
	}
	s.fp.DRAM = float64(sys.MemBytes()) / logical
	s.fp.Disk = float64(sys.DiskBytes()) / logical
	return s, nil
}

// settle brings a loaded row to rest, as a snapshot at rest is: a
// write-back cache's dirty keys flushed, then an LSM — TierBase's storage
// tier or an LSM baseline — flushed and compacted.
func settle(sys baselines.System) error {
	var db *lsm.DB
	switch s := sys.(type) {
	case *TBSystem:
		if err := s.st.FlushDirty(); err != nil {
			return err
		}
		db = s.st.DB
	case *baselines.LSMStore:
		db = s.DB()
	}
	if db == nil {
		return nil
	}
	if err := db.Flush(); err != nil {
		return err
	}
	db.CompactAll()
	return nil
}

// logicalBytes is the key and value bytes ops write.
func logicalBytes(ops []workload.Op) int64 {
	var n int64
	for _, op := range ops {
		n += int64(len(op.Key) + len(op.Value))
	}
	return n
}

// Evaluator is the harness as the cost framework's ConfigEvaluator, the
// one cost-advisor runs core.FindOptimal over. Its rows are raw, pmem,
// zstd-d and pbc, and a write-through row whose cache holds a fraction of
// the data; the first Measure measures them all by measureRows on one
// workload, and each is reported per unit of its own instance's cost,
// before any tolerance.
type Evaluator struct {
	refQPS float64
	rows   []row
	suts   func() (map[string]costSUT, error)
}

// NewEvaluator measures rows on spec: its population loaded, ops
// operations of its run phase replayed. The write-through row caches
// cacheRatio of the data, its storage tier in dir. A positive refQPS
// scales every row's throughput by the factor that makes raw's reach it.
func NewEvaluator(spec workload.Spec, ops int, cacheRatio, refQPS float64, dir string) *Evaluator {
	load := spec.LoadOps()
	ds, x := spec.Dataset, 1/cacheRatio
	rows := []row{
		{"raw", cacheInst, 0, &TBConfig{Threads: 1}},
		{"pmem", pmemInst, 0, &TBConfig{Threads: 1, PMem: true}},
		{"zstd-d", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds}},
		{"pbc", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "pbc", TrainOn: ds}},
		{fmt.Sprintf("wt-%.3gX", x), cacheInst, 0, &TBConfig{Threads: 1, Persist: "wt", CacheRatioX: x,
			ExpectedLogicalBytes: logicalBytes(load)}},
	}
	return &Evaluator{refQPS: refQPS, rows: rows, suts: sync.OnceValues(func() (map[string]costSUT, error) {
		suts, err := measureRows(rows, dir, load, NewOpsMulti(spec, ops, 4), 4)
		m := make(map[string]costSUT, len(suts))
		for _, s := range suts {
			m[s.name] = s
		}
		return m, err
	})}
}

// Configs names the rows, raw first.
func (e *Evaluator) Configs() []core.Config {
	out := make([]core.Config, len(e.rows))
	for i, r := range e.rows {
		out[i] = core.Config{Name: r.name}
	}
	return out
}

// Measure implements core.ConfigEvaluator.
func (e *Evaluator) Measure(cfg core.Config) (core.Measured, error) {
	suts, err := e.suts()
	s, ok := suts[cfg.Name]
	switch {
	case err != nil:
		return core.Measured{}, err
	case !ok:
		return core.Measured{}, fmt.Errorf("bench: no row %q", cfg.Name)
	case e.refQPS > 0:
		s.qps *= e.refQPS / suts["raw"].qps
	}
	return s.measured(), nil
}

// MissRatio is the miss ratio a measured tiered row saw; ok is false for
// any other row.
func (e *Evaluator) MissRatio(name string) (mr float64, ok bool) {
	suts, _ := e.suts()
	s, ok := suts[name]
	return s.mr, ok && s.tiered
}
