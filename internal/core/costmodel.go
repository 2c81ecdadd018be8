// Package core implements the Space-Performance Cost Model — the primary
// contribution of the TierBase paper (§2, §5).
//
// The model prices a workload on a fleet of identical resource instances
// as the maximum of its performance cost (PC) and space cost (SC):
// provisioning must satisfy the binding constraint, whether that is query
// throughput or data volume (Definition 1). From measured per-instance
// capability (MaxPerf, MaxSpace) it derives the cost metrics CPQPS and
// CPGB (Definition 2) and the smooth cost of Equation 2 (Evaluate), the
// workload classes of §2.1 (Classify), the optimal configuration of
// Theorem 2.1 (OptimalConfig takes the least cost; that it balances PC and
// SC on a dense frontier is checked by a test, not computed), the
// tiered-storage cost model (Equation 3) with its optimal cache ratio
// (Theorem 5.1), and the adapted Five-Minute Rule (Equation 5) with
// break-even intervals. Gray and Putzolu's original rule (Equation 4) and
// §2.4's tiered-versus-single-tier comparison are not implemented.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Instance describes one resource instance (container/VM) — the unit of
// allocation. The paper's standard container is 1 CPU core + 4 GB DRAM
// with relative cost 1.0.
type Instance struct {
	Name     string
	Cost     float64 // monetary cost per instance (relative units)
	CPUCores float64
	MemoryGB float64 // DRAM
	PMemGB   float64 // persistent memory extending DRAM (0 = none)
	DiskGB   float64
}

// StandardContainer is the paper's cost unit (§6.4.1).
var StandardContainer = Instance{
	Name: "standard-1c4g", Cost: 1.0, CPUCores: 1, MemoryGB: 4,
}

// Workload captures the requirements of one workload w.
type Workload struct {
	Name           string
	QPS            float64 // total queries per second
	DataSizeGB     float64 // total logical data volume
	ReadRatio      float64 // fraction of reads (informational)
	AvgRecordBytes float64 // mean record size (five-minute rule input)
}

// Measured is the benchmarked capability of configuration s on instance i:
// MaxPerf(w,i,s) and MaxSpace(w,i,s) from the paper.
type Measured struct {
	Config     string  // configuration label (e.g. "tierbase-pbc")
	MaxPerfQPS float64 // max sustainable QPS per instance
	MaxSpaceGB float64 // max storable data per instance
}

// Footprint is what a configuration stores per logical byte: the physical
// bytes it holds in DRAM, in PMem and on disk for each byte of keys and
// values written to it. A zero medium is one it does not use.
type Footprint struct {
	DRAM, PMem, Disk float64
}

// MaxSpaceGB is the logical data one instance i holds at this footprint:
// the tightest medium binds. A medium the footprint needs and i lacks holds
// none; an empty footprint holds unbounded data.
func (f Footprint) MaxSpaceGB(i Instance) float64 {
	space := math.Inf(1)
	for _, m := range [...]struct{ per, gb float64 }{
		{f.DRAM, i.MemoryGB}, {f.PMem, i.PMemGB}, {f.Disk, i.DiskGB},
	} {
		if m.per > 0 {
			space = math.Min(space, m.gb/m.per)
		}
	}
	return space
}

// PerCostUnit is what a configuration that serves qps on one instance i at
// footprint f buys per unit of i's cost. Configurations measured on
// different instances then price alike on StandardContainer (cost 1).
func PerCostUnit(config string, qps float64, f Footprint, i Instance) Measured {
	return Measured{Config: config, MaxPerfQPS: qps / i.Cost, MaxSpaceGB: f.MaxSpaceGB(i) / i.Cost}
}

// TieredPerCostUnit is PerCostUnit for a tiered configuration: its cache
// tier, on cache, serves qps and holds f's DRAM and PMem bytes; its storage
// tier, on stor, holds f's disk bytes. In smooth units the two tiers'
// space costs add: CPGB = CPGB(cache) + CPGB(storage).
func TieredPerCostUnit(config string, qps float64, f Footprint, cache, stor Instance) Measured {
	m := PerCostUnit(config, qps, Footprint{DRAM: f.DRAM, PMem: f.PMem}, cache)
	storGB := Footprint{Disk: f.Disk}.MaxSpaceGB(stor) / stor.Cost
	m.MaxSpaceGB = 1 / (1/m.MaxSpaceGB + 1/storGB)
	return m
}

// Tolerance derates measured capability for redundancy and skew headroom
// ("we incorporate tolerance ratios for both MaxPerf and MaxSpace").
// 1.0 means no derating; 0.8 means plan at 80% of measured capability.
type Tolerance struct {
	Perf  float64
	Space float64
}

// DefaultTolerance plans at the measured throughput and at 85% of each
// medium's capacity.
var DefaultTolerance = Tolerance{Perf: 1, Space: 0.85}

func (t Tolerance) fill() Tolerance {
	if t.Perf <= 0 || t.Perf > 1 {
		t.Perf = 1
	}
	if t.Space <= 0 || t.Space > 1 {
		t.Space = 1
	}
	return t
}

// Apply derates a measurement.
func (t Tolerance) Apply(m Measured) Measured {
	t = t.fill()
	m.MaxPerfQPS *= t.Perf
	m.MaxSpaceGB *= t.Space
	return m
}

// --- Definition 1: instance-granular costs (with ceiling) ---

// PC is the performance cost: Cost(i) × ceil(QPS / MaxPerf).
func PC(w Workload, i Instance, m Measured) float64 {
	if m.MaxPerfQPS <= 0 {
		return math.Inf(1)
	}
	return i.Cost * math.Ceil(w.QPS/m.MaxPerfQPS)
}

// SC is the space cost: Cost(i) × ceil(DataSize / MaxSpace).
func SC(w Workload, i Instance, m Measured) float64 {
	if m.MaxSpaceGB <= 0 {
		return math.Inf(1)
	}
	return i.Cost * math.Ceil(w.DataSizeGB/m.MaxSpaceGB)
}

// Cost is Definition 1: C(w,i,s) = max(PC, SC).
func Cost(w Workload, i Instance, m Measured) float64 {
	return math.Max(PC(w, i, m), SC(w, i, m))
}

// --- Definition 2: smooth cost metrics (ceiling removed) ---

// CPQPS is the cost per query per second: Cost(i) / MaxPerf.
func CPQPS(i Instance, m Measured) float64 {
	if m.MaxPerfQPS <= 0 {
		return math.Inf(1)
	}
	return i.Cost / m.MaxPerfQPS
}

// CPGB is the cost per gigabyte: Cost(i) / MaxSpace.
func CPGB(i Instance, m Measured) float64 {
	if m.MaxSpaceGB <= 0 {
		return math.Inf(1)
	}
	return i.Cost / m.MaxSpaceGB
}

// SmoothPC is CPQPS × QPS.
func SmoothPC(w Workload, i Instance, m Measured) float64 {
	return CPQPS(i, m) * w.QPS
}

// SmoothSC is CPGB × DataSize.
func SmoothSC(w Workload, i Instance, m Measured) float64 {
	return CPGB(i, m) * w.DataSizeGB
}

// Criticality classifies a workload under a configuration (§2.1, Fig 2a).
type Criticality int

// Workload criticality classes.
const (
	Balanced Criticality = iota
	PerformanceCritical
	SpaceCritical
)

// String names the criticality.
func (c Criticality) String() string {
	switch c {
	case PerformanceCritical:
		return "performance-critical"
	case SpaceCritical:
		return "space-critical"
	default:
		return "balanced"
	}
}

// Classify reports which cost dominates (with 5% indifference band).
func Classify(w Workload, i Instance, m Measured) Criticality {
	pc, sc := SmoothPC(w, i, m), SmoothSC(w, i, m)
	switch {
	case pc > sc*1.05:
		return PerformanceCritical
	case sc > pc*1.05:
		return SpaceCritical
	default:
		return Balanced
	}
}

// --- Theorem 2.1: Optimal Cost ---

// Evaluation is one configuration's cost breakdown for a workload.
type Evaluation struct {
	Measured Measured
	PC       float64
	SC       float64
	Cost     float64 // Equation 2: max(PC, SC)
	Gap      float64 // |PC - SC|
}

// Evaluate prices every configuration for the workload in smooth units:
// PC = CPQPS×QPS, SC = CPGB×DataSize and Cost is Equation 2, their max.
func Evaluate(w Workload, i Instance, configs []Measured) []Evaluation {
	out := make([]Evaluation, 0, len(configs))
	for _, m := range configs {
		pc, sc := SmoothPC(w, i, m), SmoothSC(w, i, m)
		out = append(out, Evaluation{
			Measured: m, PC: pc, SC: sc,
			Cost: math.Max(pc, sc), Gap: math.Abs(pc - sc),
		})
	}
	return out
}

// ErrNoConfigs is returned when the configuration set is empty.
var ErrNoConfigs = errors.New("core: no configurations to evaluate")

// OptimalConfig returns the min-max-cost configuration (C* of Theorem 2.1).
func OptimalConfig(w Workload, i Instance, configs []Measured) (Evaluation, error) {
	evals := Evaluate(w, i, configs)
	if len(evals) == 0 {
		return Evaluation{}, ErrNoConfigs
	}
	best := evals[0]
	for _, e := range evals[1:] {
		if e.Cost < best.Cost {
			best = e
		}
	}
	return best, nil
}

// --- Equation 3: tiered-storage cost ---

// TieredInputs are the per-unit costs of both tiers for a workload.
// All fields are workload-level monetary costs:
//
//	PCCache   — cost of serving the full QPS from the cache tier
//	PCMiss    — extra cost of serving the full QPS through the miss path
//	SCCache   — cost of storing ALL data in the cache tier
//	PCStorage — cost of serving the full QPS from the storage tier
//	SCStorage — cost of storing all data in the storage tier
type TieredInputs struct {
	PCCache   float64
	PCMiss    float64
	SCCache   float64
	PCStorage float64
	SCStorage float64
}

// TieredCost is Equation 3:
//
//	C = max(PC_cache + PC_miss×MR, SC_cache×CR) + max(PC_storage×MR, SC_storage)
func TieredCost(in TieredInputs, cr, mr float64) float64 {
	cacheCost := math.Max(in.PCCache+in.PCMiss*mr, in.SCCache*cr)
	storageCost := math.Max(in.PCStorage*mr, in.SCStorage)
	return cacheCost + storageCost
}

// CacheTierCost is Equation 6 (the cache-tier term alone, used when the
// storage pool is large enough that its cost is SC-dominated).
func CacheTierCost(in TieredInputs, cr, mr float64) float64 {
	return math.Max(in.PCCache+in.PCMiss*mr, in.SCCache*cr)
}

// --- Theorem 5.1: optimal cache ratio ---

// MRC is a miss-ratio curve: MR = f(CR), non-increasing on [0,1].
type MRC func(cr float64) float64

// OptimalCacheRatio solves Theorem 5.1 by bisection: the CR* where
// g(CR) = PC_cache + PC_miss×f(CR) meets h(CR) = SC_cache×CR.
// Returns CR*, the resulting MR, and the cache-tier cost at the optimum.
// When the curves do not intersect in [0,1], the cheaper endpoint wins.
func OptimalCacheRatio(in TieredInputs, f MRC) (crStar, mrStar, cost float64) {
	g := func(cr float64) float64 { return in.PCCache + in.PCMiss*f(cr) }
	h := func(cr float64) float64 { return in.SCCache * cr }
	d := func(cr float64) float64 { return g(cr) - h(cr) }
	lo, hi := 0.0, 1.0
	if d(lo) <= 0 {
		// Space cost dominates even with an empty cache: CR*=0.
		return 0, f(0), CacheTierCost(in, 0, f(0))
	}
	if d(hi) >= 0 {
		// Performance cost dominates even with a full cache: CR*=1.
		return 1, f(1), CacheTierCost(in, 1, f(1))
	}
	for iter := 0; iter < 100 && hi-lo > 1e-9; iter++ {
		mid := (lo + hi) / 2
		if d(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	crStar = (lo + hi) / 2
	mrStar = f(crStar)
	return crStar, mrStar, CacheTierCost(in, crStar, mrStar)
}

// --- Five-Minute Rule ---

// BreakEvenInterval is Equation 5, the adaptation for modern distributed
// systems:
//
//	interval = CPQPS_slow / (CPGB_fast × AvgRecordSize)
//
// cpqpsSlow prices one access per second on the slow (space-optimized)
// configuration; cpgbFast prices one GB on the fast configuration;
// avgRecordBytes is the workload's mean record size. If a record's mean
// access interval is shorter than the result, keep it in fast storage.
func BreakEvenInterval(cpqpsSlow, cpgbFast, avgRecordBytes float64) float64 {
	recGB := avgRecordBytes / (1 << 30)
	denom := cpgbFast * recGB
	if denom <= 0 {
		return math.Inf(1)
	}
	return cpqpsSlow / denom
}

// BreakEvenEntry is one row of the paper's Table 3.
type BreakEvenEntry struct {
	Fast, Slow string
	IntervalS  float64
}

// BreakEvenTable computes pairwise break-even intervals between
// configurations ordered fast→slow by CPQPS. For each (fast, slow) pair
// with CPQPS_fast < CPQPS_slow it reports Equation 5's threshold.
func BreakEvenTable(i Instance, configs []Measured, avgRecordBytes float64) []BreakEvenEntry {
	ordered := append([]Measured(nil), configs...)
	sort.Slice(ordered, func(a, b int) bool {
		return CPQPS(i, ordered[a]) < CPQPS(i, ordered[b])
	})
	var out []BreakEvenEntry
	for a := 0; a < len(ordered); a++ {
		for b := a + 1; b < len(ordered); b++ {
			fast, slow := ordered[a], ordered[b]
			out = append(out, BreakEvenEntry{
				Fast: fast.Config,
				Slow: slow.Config,
				IntervalS: BreakEvenInterval(
					CPQPS(i, slow), CPGB(i, fast), avgRecordBytes),
			})
		}
	}
	return out
}

// RecommendStorage picks the cheapest configuration for a record accessed
// once every accessIntervalS seconds, using the break-even chain: choose
// the slowest (most space-efficient) config whose break-even interval
// against every faster config is below the access interval.
func RecommendStorage(i Instance, configs []Measured, avgRecordBytes, accessIntervalS float64) (Measured, error) {
	if len(configs) == 0 {
		return Measured{}, ErrNoConfigs
	}
	ordered := append([]Measured(nil), configs...)
	sort.Slice(ordered, func(a, b int) bool {
		return CPQPS(i, ordered[a]) < CPQPS(i, ordered[b])
	})
	best := ordered[0] // fastest by default
	for idx := 1; idx < len(ordered); idx++ {
		slow := ordered[idx]
		// Moving to `slow` pays off if the record is accessed less often
		// than the break-even interval vs. the current best.
		be := BreakEvenInterval(CPQPS(i, slow), CPGB(i, best), avgRecordBytes)
		if accessIntervalS > be {
			best = slow
		}
	}
	return best, nil
}

// String renders an evaluation row.
func (e Evaluation) String() string {
	return fmt.Sprintf("%-24s PC=%8.3f SC=%8.3f C=%8.3f", e.Measured.Config, e.PC, e.SC, e.Cost)
}
