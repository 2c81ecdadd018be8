package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

var wl = Workload{Name: "w", QPS: 80000, DataSizeGB: 10, ReadRatio: 0.95, AvgRecordBytes: 100}

func TestPCSCCeiling(t *testing.T) {
	m := Measured{Config: "c", MaxPerfQPS: 30000, MaxSpaceGB: 4}
	// 80000/30000 = 2.67 -> 3 instances for perf; 10/4 = 2.5 -> 3 for space.
	if got := PC(wl, StandardContainer, m); got != 3 {
		t.Fatalf("PC = %f", got)
	}
	if got := SC(wl, StandardContainer, m); got != 3 {
		t.Fatalf("SC = %f", got)
	}
	if got := Cost(wl, StandardContainer, m); got != 3 {
		t.Fatalf("C = %f", got)
	}
}

func TestZeroCapabilityIsInfinite(t *testing.T) {
	m := Measured{MaxPerfQPS: 0, MaxSpaceGB: 0}
	if !math.IsInf(PC(wl, StandardContainer, m), 1) || !math.IsInf(SC(wl, StandardContainer, m), 1) {
		t.Fatal("zero capability should cost infinity")
	}
	if !math.IsInf(CPQPS(StandardContainer, m), 1) || !math.IsInf(CPGB(StandardContainer, m), 1) {
		t.Fatal("unit costs should be infinite")
	}
}

func TestSmoothMetrics(t *testing.T) {
	m := Measured{MaxPerfQPS: 40000, MaxSpaceGB: 2}
	if got := CPQPS(StandardContainer, m); got != 1.0/40000 {
		t.Fatalf("CPQPS %g", got)
	}
	if got := CPGB(StandardContainer, m); got != 0.5 {
		t.Fatalf("CPGB %g", got)
	}
	if got := SmoothPC(wl, StandardContainer, m); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("smooth PC %g", got)
	}
	if got := SmoothSC(wl, StandardContainer, m); math.Abs(got-5.0) > 1e-9 {
		t.Fatalf("smooth SC %g", got)
	}
	// Equation 2: max(CPQPS×QPS, CPGB×DataSize).
	e := Evaluate(wl, StandardContainer, []Measured{m})[0]
	if math.Abs(e.PC-2.0) > 1e-9 || math.Abs(e.SC-5.0) > 1e-9 || math.Abs(e.Cost-5.0) > 1e-9 || math.Abs(e.Gap-3.0) > 1e-9 {
		t.Fatalf("evaluation %+v", e)
	}
}

func TestTolerance(t *testing.T) {
	m := Measured{MaxPerfQPS: 100, MaxSpaceGB: 10}
	d := Tolerance{Perf: 0.8, Space: 0.5}.Apply(m)
	if d.MaxPerfQPS != 80 || d.MaxSpaceGB != 5 {
		t.Fatalf("derated: %+v", d)
	}
	// Invalid tolerances normalize to 1.
	u := Tolerance{Perf: -1, Space: 2}.Apply(m)
	if u.MaxPerfQPS != 100 || u.MaxSpaceGB != 10 {
		t.Fatalf("invalid tolerance: %+v", u)
	}
}

func TestFootprintPerCostUnit(t *testing.T) {
	pm := Instance{Cost: 1.25, MemoryGB: 4, PMemGB: 12}
	stor := Instance{Cost: 1, DiskGB: 256}
	// DRAM holds 4/0.5 = 8 GB, PMem 12/2 = 6 GB: PMem binds.
	if got := (Footprint{DRAM: 0.5, PMem: 2}).MaxSpaceGB(pm); got != 6 {
		t.Fatalf("MaxSpace %g, want 6", got)
	}
	if got := (Footprint{DRAM: 0.5, Disk: 1}).MaxSpaceGB(pm); got != 0 {
		t.Fatalf("a needed medium the instance lacks holds %g GB", got)
	}
	if got := (Footprint{}).MaxSpaceGB(pm); !math.IsInf(got, 1) {
		t.Fatalf("an empty footprint holds %g GB", got)
	}
	m := PerCostUnit("p", 100000, Footprint{DRAM: 0.5, PMem: 2}, pm)
	if m.Config != "p" || m.MaxPerfQPS != 80000 || m.MaxSpaceGB != 4.8 {
		t.Fatalf("per cost unit: %+v", m)
	}
	// Cache 8 GB a cost unit, storage 256 GB: CPGB 1/8 + 1/256.
	tm := TieredPerCostUnit("t", 100000, Footprint{DRAM: 0.5, Disk: 1}, StandardContainer, stor)
	if math.Abs(CPGB(StandardContainer, tm)-(1.0/8+1.0/256)) > 1e-12 || tm.MaxPerfQPS != 100000 {
		t.Fatalf("tiered: %+v", tm)
	}
}

func TestClassify(t *testing.T) {
	// High QPS, tiny data => performance-critical.
	pc := Classify(Workload{QPS: 1e6, DataSizeGB: 0.1}, StandardContainer, Measured{MaxPerfQPS: 1e4, MaxSpaceGB: 4})
	if pc != PerformanceCritical {
		t.Fatalf("got %v", pc)
	}
	// Low QPS, huge data => space-critical.
	sc := Classify(Workload{QPS: 100, DataSizeGB: 1000}, StandardContainer, Measured{MaxPerfQPS: 1e5, MaxSpaceGB: 4})
	if sc != SpaceCritical {
		t.Fatalf("got %v", sc)
	}
	if pc.String() != "performance-critical" || sc.String() != "space-critical" || Balanced.String() != "balanced" {
		t.Fatal("names")
	}
}

func TestOptimalConfigPicksMinMax(t *testing.T) {
	configs := []Measured{
		{Config: "fast-big-mem", MaxPerfQPS: 100000, MaxSpaceGB: 1},
		{Config: "balanced", MaxPerfQPS: 50000, MaxSpaceGB: 4},
		{Config: "compressed", MaxPerfQPS: 20000, MaxSpaceGB: 12},
	}
	best, err := OptimalConfig(wl, StandardContainer, configs)
	if err != nil {
		t.Fatal(err)
	}
	// fast: max(0.8, 10) = 10; balanced: max(1.6, 2.5) = 2.5;
	// compressed: max(4, 0.83) = 4. Balanced wins.
	if best.Measured.Config != "balanced" {
		t.Fatalf("best = %s (cost %f)", best.Measured.Config, best.Cost)
	}
	if _, err := OptimalConfig(wl, StandardContainer, nil); !errors.Is(err, ErrNoConfigs) {
		t.Fatalf("empty: %v", err)
	}
}

func TestOptimalCostTheoremOnFrontier(t *testing.T) {
	// Theorem 2.1: on a dense non-increasing trade-off frontier
	// (CPQPS = f(CPGB), f non-increasing), the min-max-cost configuration
	// is the one minimizing |PC - SC|.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Workload{QPS: 1000 + rng.Float64()*1e5, DataSizeGB: 1 + rng.Float64()*50}
		// Generate a dense frontier: as space capacity rises, perf falls.
		var configs []Measured
		const n = 200
		for k := 0; k < n; k++ {
			frac := float64(k+1) / n
			configs = append(configs, Measured{
				Config:     "s" + string(rune('0'+k%10)),
				MaxSpaceGB: 0.5 + frac*16,                   // 0.5 .. 16.5 GB
				MaxPerfQPS: 1000 + (1-frac)*(1-frac)*100000, // falls as space rises
			})
		}
		best, _ := OptimalConfig(w, StandardContainer, configs)
		evals := Evaluate(w, StandardContainer, configs)
		bal := evals[0] // argmin |PC - SC|
		for _, e := range evals[1:] {
			if e.Gap < bal.Gap {
				bal = e
			}
		}
		// The balanced config's cost must be within a frontier-step of the
		// true optimum (they coincide in the continuous limit).
		return bal.Cost <= best.Cost*1.10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTieredCostEquation3(t *testing.T) {
	in := TieredInputs{PCCache: 1, PCMiss: 2, SCCache: 10, PCStorage: 4, SCStorage: 1}
	// CR=0.2, MR=0.1:
	// cache = max(1 + 2*0.1, 10*0.2) = max(1.2, 2) = 2
	// storage = max(4*0.1, 1) = 1
	if got := TieredCost(in, 0.2, 0.1); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("tiered cost %g", got)
	}
	if got := CacheTierCost(in, 0.2, 0.1); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("cache tier cost %g", got)
	}
}

func TestOptimalCacheRatioBisection(t *testing.T) {
	in := TieredInputs{PCCache: 1, PCMiss: 8, SCCache: 20}
	f := MRC(func(cr float64) float64 { return math.Pow(1-cr, 3) }) // steep MRC
	crStar, mrStar, cost := OptimalCacheRatio(in, f)
	// At the optimum g(CR*) == h(CR*).
	g := in.PCCache + in.PCMiss*f(crStar)
	h := in.SCCache * crStar
	if math.Abs(g-h) > 1e-6 {
		t.Fatalf("balance violated: g=%f h=%f at CR*=%f", g, h, crStar)
	}
	if mrStar != f(crStar) {
		t.Fatal("MR* inconsistent")
	}
	// No interior CR should be cheaper.
	for cr := 0.0; cr <= 1.0; cr += 0.01 {
		if c := CacheTierCost(in, cr, f(cr)); c < cost-1e-9 {
			t.Fatalf("CR=%f cost %f beats optimum %f at CR*=%f", cr, c, cost, crStar)
		}
	}
}

func TestOptimalCacheRatioEndpoints(t *testing.T) {
	flat := MRC(func(cr float64) float64 { return 0.5 })
	// Space dominates everywhere: optimal CR=0.
	cr, _, _ := OptimalCacheRatio(TieredInputs{PCCache: 0.0, PCMiss: 0.0, SCCache: 100}, flat)
	if cr != 0 {
		t.Fatalf("CR* = %f, want 0", cr)
	}
	// Perf dominates everywhere: optimal CR=1.
	cr, _, _ = OptimalCacheRatio(TieredInputs{PCCache: 100, PCMiss: 100, SCCache: 0.001}, flat)
	if cr != 1 {
		t.Fatalf("CR* = %f, want 1", cr)
	}
}

func TestOptimalCacheRatioPropertyBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := TieredInputs{
			PCCache: rng.Float64() * 2,
			PCMiss:  0.5 + rng.Float64()*10,
			SCCache: 0.5 + rng.Float64()*30,
		}
		theta := 0.6 + rng.Float64()*0.39
		mrc := ZipfMRC(10000, theta)
		crStar, _, cost := OptimalCacheRatio(in, mrc)
		if crStar < 0 || crStar > 1 {
			return false
		}
		// Sampled costs must not beat the reported optimum meaningfully.
		for cr := 0.0; cr <= 1.0; cr += 0.05 {
			if CacheTierCost(in, cr, mrc(cr)) < cost*0.999-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakEvenIntervalShape(t *testing.T) {
	// Bigger records -> shorter break-even interval (cheaper to keep the
	// record in fast storage only if accessed very frequently... inverse).
	small := BreakEvenInterval(0.001, 2.0, 100)
	large := BreakEvenInterval(0.001, 2.0, 10000)
	if large >= small {
		t.Fatalf("interval should shrink with record size: %f vs %f", small, large)
	}
	// Cheaper fast storage -> longer worthwhile residency? No: cheaper
	// fast storage (lower CPGB_fast) RAISES the interval.
	cheapFast := BreakEvenInterval(0.001, 0.5, 100)
	if cheapFast <= small {
		t.Fatalf("cheaper fast storage should lengthen interval: %f vs %f", cheapFast, small)
	}
	if !math.IsInf(BreakEvenInterval(1, 0, 100), 1) {
		t.Fatal("zero CPGB should be infinite")
	}
}

func TestBreakEvenTableOrdering(t *testing.T) {
	configs := []Measured{
		{Config: "raw", MaxPerfQPS: 100000, MaxSpaceGB: 2},
		{Config: "pmem", MaxPerfQPS: 80000, MaxSpaceGB: 5},
		{Config: "pbc", MaxPerfQPS: 40000, MaxSpaceGB: 8},
	}
	table := BreakEvenTable(StandardContainer, configs, 100)
	if len(table) != 3 {
		t.Fatalf("pairs: %d", len(table))
	}
	// Paper Table 3 ordering: raw->pmem < raw->pbc < pmem->pbc intervals.
	byPair := map[string]float64{}
	for _, e := range table {
		byPair[e.Fast+"->"+e.Slow] = e.IntervalS
	}
	if !(byPair["raw->pmem"] < byPair["raw->pbc"]) {
		t.Fatalf("ordering: %v", byPair)
	}
	if !(byPair["raw->pbc"] < byPair["pmem->pbc"]) {
		t.Fatalf("ordering: %v", byPair)
	}
}

func TestRecommendStorage(t *testing.T) {
	configs := []Measured{
		{Config: "raw", MaxPerfQPS: 100000, MaxSpaceGB: 2},
		{Config: "pmem", MaxPerfQPS: 80000, MaxSpaceGB: 5},
		{Config: "pbc", MaxPerfQPS: 40000, MaxSpaceGB: 8},
	}
	// Very hot record: stay raw.
	hot, err := RecommendStorage(StandardContainer, configs, 100, 1)
	if err != nil || hot.Config != "raw" {
		t.Fatalf("hot: %s %v", hot.Config, err)
	}
	// Very cold record: use the most space-efficient config.
	cold, _ := RecommendStorage(StandardContainer, configs, 100, 1e9)
	if cold.Config != "pbc" {
		t.Fatalf("cold: %s", cold.Config)
	}
	if _, err := RecommendStorage(StandardContainer, nil, 100, 1); !errors.Is(err, ErrNoConfigs) {
		t.Fatal("empty configs")
	}
}

func TestEvaluationString(t *testing.T) {
	e := Evaluation{Measured: Measured{Config: "x"}, PC: 1, SC: 2, Cost: 2}
	if !strings.Contains(e.String(), "x") {
		t.Fatal("missing config name")
	}
}

func TestSortStability(t *testing.T) {
	// BreakEvenTable must not mutate the caller's slice.
	configs := []Measured{
		{Config: "b", MaxPerfQPS: 1, MaxSpaceGB: 1},
		{Config: "a", MaxPerfQPS: 100, MaxSpaceGB: 1},
	}
	BreakEvenTable(StandardContainer, configs, 100)
	if configs[0].Config != "b" {
		t.Fatal("input mutated")
	}
	if !sort.SliceIsSorted([]int{1, 2}, func(i, j int) bool { return i < j }) {
		t.Fatal("sanity")
	}
}
