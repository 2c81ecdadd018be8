package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"tierbase/internal/core"
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

// missRTT is the injected cache→storage round trip for tiered
// configurations. It is calibrated to the paper's *relative* miss-penalty
// regime rather than an absolute network RTT: the paper's cache ops cost
// ~10µs (≈100 kQPS/core) and its optimized miss path a small multiple of
// that; our in-process cache ops cost ~2.5µs, so ~15µs keeps
// PC_miss/PC_cache in the same ≈6-10× band (see the package doc's scaling
// note).
const missRTT = 25 * time.Microsecond

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

// Evaluator is the harness as the cost framework's ConfigEvaluator, the
// one cost-advisor runs core.FindOptimal over. Its rows are raw, pmem,
// zstd-d and pbc, and a write-through row whose cache holds a fraction of
// the data; each is measured once by measureTB on one workload and
// reported per unit of its own instance's cost, before any tolerance.
type Evaluator struct {
	refQPS    float64
	dir       string
	load, run []workload.Op
	rows      []costRow
	suts      map[string]costSUT
}

// costRow is a TierBase row and the instance it is priced on.
type costRow struct {
	cfg  TBConfig
	inst core.Instance
}

// NewEvaluator measures rows on spec: its population loaded, ops
// operations of its run phase replayed. The write-through row caches
// cacheRatio of the data, its storage tier in dir. A positive refQPS
// scales every row's throughput by the factor that makes raw's reach it.
func NewEvaluator(spec workload.Spec, ops int, cacheRatio, refQPS float64, dir string) *Evaluator {
	load := spec.LoadOps()
	ds, x := spec.Dataset, 1/cacheRatio
	return &Evaluator{
		refQPS: refQPS, dir: dir, load: load, run: NewOpsMulti(spec, ops, 4),
		rows: []costRow{
			{TBConfig{Name: "raw", Threads: 1}, cacheInst},
			{TBConfig{Name: "pmem", Threads: 1, PMem: true}, pmemInst},
			{TBConfig{Name: "zstd-d", Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds}, cacheInst},
			{TBConfig{Name: "pbc", Threads: 1, Compressor: "pbc", TrainOn: ds}, cacheInst},
			{TBConfig{Name: fmt.Sprintf("wt-%.3gX", x), Threads: 1, Persist: "wt", CacheRatioX: x,
				ExpectedLogicalBytes: logicalBytes(load), RTT: missRTT}, cacheInst},
		},
		suts: map[string]costSUT{},
	}
}

// Configs names the rows, raw first.
func (e *Evaluator) Configs() []core.Config {
	out := make([]core.Config, len(e.rows))
	for i, r := range e.rows {
		out[i] = core.Config{Name: r.cfg.Name}
	}
	return out
}

// Measure implements core.ConfigEvaluator.
func (e *Evaluator) Measure(cfg core.Config) (core.Measured, error) {
	s, err := e.measure(cfg.Name)
	if err != nil {
		return core.Measured{}, err
	}
	if e.refQPS > 0 {
		raw, err := e.measure("raw")
		if err != nil {
			return core.Measured{}, err
		}
		s.qps *= e.refQPS / raw.qps
	}
	return s.measured(), nil
}

// MissRatio is the miss ratio a measured tiered row saw; ok is false for
// any other row.
func (e *Evaluator) MissRatio(name string) (mr float64, ok bool) {
	s, ok := e.suts[name]
	return s.mr, ok && s.tiered
}

// measure runs the named row once and remembers what it measured.
func (e *Evaluator) measure(name string) (costSUT, error) {
	if s, ok := e.suts[name]; ok {
		return s, nil
	}
	for _, r := range e.rows {
		if r.cfg.Name == name {
			s, err := measureTB(r.cfg, r.inst, filepath.Join(e.dir, name), e.load, e.run, 4)
			if err == nil {
				e.suts[name] = s
			}
			return s, err
		}
	}
	return costSUT{}, fmt.Errorf("bench: no row %q", name)
}
