package bench

import (
	"fmt"
	"math"
	"path/filepath"

	"tierbase/internal/core"
	"tierbase/internal/workload"
)

// RunFig10 reproduces Figure 10: cost of caching systems under 50/50 and
// 95/5 mixes. The declared workload is 10 GB with QPS = 0.8 × the
// single-thread TierBase reference (the paper's 80k-QPS-vs-100k-capable
// positioning).
func RunFig10(o RunOpts) (*Result, error) {
	o.fill()
	ds := workload.NewCities()
	res := &Result{
		ID: "fig10", Title: "Cost of caching systems",
		Header: []string{"mix", "system", "cost_GB(SC)", "cost_QPS(PC)", "cost"},
	}
	err := costMixes(res, o.Dir, int64(o.n(3000)), o.n(12000), ds, 0.8, []row{
		{"tierbase-s", cacheInst, 0, &TBConfig{Threads: 1}},
		{"tierbase-e", cacheInst, 0, &TBConfig{Threads: 0}},
		{"tierbase-zstd", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds}},
		{"tierbase-pbc", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "pbc", TrainOn: ds}},
		{"tierbase-pmem", pmemInst, 0, &TBConfig{Threads: 1, PMem: true}},
		{"redis-s", cacheInst, 0, nil},
		{"memcached-m", bigInst, 0, nil},
		{"dragonfly-m", bigInst, 0, nil},
	})
	if err != nil {
		return nil, err
	}
	res.AddNote("declared workload: 10GB, QPS=0.8×MaxPerf(tierbase-s); paper shape: memcached lowest SC among plain caches; pmem/compression cut TierBase SC below memcached; elastic halves PC")
	return res, nil
}

// RunFig11 reproduces Figure 11: cost of databases with persistence.
// Declared workload: 10 GB at QPS = 0.4 × the TierBase-WAL reference
// (the paper's 40k positioning). The tiered rows' cache tier runs on
// standard containers and their storage tier on storInst; the rest run on
// 4c16g instances.
func RunFig11(o RunOpts) (*Result, error) {
	o.fill()
	nRecords := int64(o.n(3000))
	ds := workload.NewCities()
	res := &Result{
		ID: "fig11", Title: "Cost of databases with persistence",
		Header: []string{"mix", "system", "SpaceCost", "PerformanceCost", "cost"},
	}
	err := costMixes(res, o.Dir, nRecords, o.n(10000), ds, 0.4, []row{
		{"tierbase-wal", bigInst, 1, &TBConfig{Threads: 1, Persist: "wal"}},
		{"tierbase-wal-pmem", bigInst, 1, &TBConfig{Threads: 1, Persist: "wal-pmem"}},
		{"tierbase-wt-10X", cacheInst, 0, &TBConfig{Persist: "wt", CacheRatioX: 10}},
		{"tierbase-wb-10X", cacheInst, 1, &TBConfig{Persist: "wb", CacheRatioX: 10}},
		{"redis-aof", bigInst, 1, nil}, // dual replica
		{"cassandra", bigInst, 0, nil},
		{"hbase", bigInst, 0, nil},
	})
	if err != nil {
		return nil, err
	}
	res.AddNote("paper shape: cassandra/hbase high PC low SC; redis-aof/tierbase-wal low PC high SC; tiered wt/wb balance both; wb beats wt on 50/50, converges on 95/5")
	return res, nil
}

// costMixes measures rows on YCSB workloads A (50/50) and B (95/5) of
// nRecords ds records and nOps operations, and adds every row to res
// priced for a declared 10 GB at ref × the first row's QPS.
func costMixes(res *Result, dir string, nRecords int64, nOps int, ds workload.Dataset, ref float64, rows []row) error {
	for _, mix := range []struct {
		label string
		spec  workload.Spec
	}{
		{"50/50", workload.WorkloadA(nRecords, ds)},
		{"95/5", workload.WorkloadB(nRecords, ds)},
	} {
		suts, err := measureRows(rows, filepath.Join(dir, res.ID, mix.label), mix.spec.LoadOps(), NewOpsMulti(mix.spec, nOps, 4), 4)
		if err != nil {
			return err
		}
		for _, e := range price(suts, ref*suts[0].qps, 10) {
			res.AddRow(mix.label, e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost))
		}
	}
	return nil
}

// RunFig12 reproduces Figure 12: replayed case-study costs. Each case
// measures every system on its trace, the trace's keys preloaded (the
// sampled data snapshot of §5.3).
func RunFig12(o RunOpts) (*Result, error) {
	o.fill()
	res := &Result{
		ID: "fig12", Title: "Case studies (replayed traces)",
		Header: []string{"case", "system", "cost_GB(SC)", "cost_QPS(PC)", "cost", "MR"},
	}
	for _, c := range []struct {
		label       string
		ops         []workload.Op
		ds          workload.Dataset
		ref, dataGB float64 // declared QPS (× tierbase-raw's) and size
	}{
		// User Info Service: read-heavy 32:1, zipfian.
		{"userinfo", workload.UserInfo(workload.UserInfoOptions{Ops: o.n(25000)}), workload.NewKV1(), 1, 20},
		// Capital Reconciliation: 1:1, temporal skew.
		{"reconciliation", workload.Reconciliation(workload.ReconciliationOptions{Ops: o.n(25000)}), workload.NewKV2(), 0.2, 10},
	} {
		pre := workload.Preload(c.ops, c.ds)
		suts, err := measureRows([]row{
			{"tierbase-raw", cacheInst, 0, &TBConfig{Threads: 1}},
			{"tierbase-e", cacheInst, 0, &TBConfig{Threads: 0}},
			{"tierbase-pmem", pmemInst, 0, &TBConfig{Threads: 1, PMem: true}},
			{"tierbase-pbc", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "pbc", TrainOn: c.ds}},
			{"tierbase-wt-4X", cacheInst, 0, &TBConfig{Persist: "wt", CacheRatioX: 4}},
			{"tierbase-wb-4X", cacheInst, 1, &TBConfig{Persist: "wb", CacheRatioX: 4}},
			// Dual-replica reliability per §6.5.1.
			{"redis", cacheInst, 1, nil},
			{"memcached-m", bigInst, 1, nil},
			{"dragonfly-m", bigInst, 1, nil},
			{"cassandra", bigInst, 0, nil},
			{"hbase", bigInst, 0, nil},
		}, filepath.Join(o.Dir, "fig12", c.label), pre, c.ops, 4)
		if err != nil {
			return nil, err
		}
		for i, e := range price(suts, c.ref*suts[0].qps, c.dataGB) {
			res.AddRow(c.label, e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost), fmtF(suts[i].mr))
		}
	}
	res.AddNote("case1 shape: in-memory stores low PC / high SC; PBC halves TierBase SC (62%% cost cut vs raw); case2 shape: wt cuts PC vs cassandra, wb cuts further; tiering cuts ≥37%% vs cassandra/hbase")
	return res, nil
}

// RunFig1 reproduces Figure 1: normalized SC/PC/Cost bars for
// TierBase-Raw/PMem/PBC/wb-5X/wt-5X on the primary (User Info) scenario.
func RunFig1(o RunOpts) (*Result, error) {
	o.fill()
	res := &Result{
		ID: "fig1", Title: "Cost comparison in TierBase (normalized)",
		Header: []string{"config", "SC", "PC", "cost"},
	}
	ui := workload.UserInfo(workload.UserInfoOptions{Ops: o.n(20000)})
	pre := workload.Preload(ui, workload.NewKV1())
	suts, err := measureRows([]row{
		{"tierbase-raw", cacheInst, 0, &TBConfig{Threads: 1}},
		{"tierbase-pmem", pmemInst, 0, &TBConfig{Threads: 1, PMem: true}},
		{"tierbase-pbc", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "pbc", TrainOn: workload.NewKV1()}},
		{"tierbase-wb-5X", cacheInst, 1, &TBConfig{Persist: "wb", CacheRatioX: 5}},
		{"tierbase-wt-5X", cacheInst, 0, &TBConfig{Persist: "wt", CacheRatioX: 5}},
	}, filepath.Join(o.Dir, "fig1"), pre, ui, 4)
	if err != nil {
		return nil, err
	}
	evals := price(suts, suts[0].qps, 20)
	var maxCost float64
	for _, e := range evals {
		maxCost = math.Max(maxCost, e.Cost)
	}
	for _, e := range evals {
		res.AddRow(e.Measured.Config, fmtF(e.SC/maxCost), fmtF(e.PC/maxCost), fmtF(e.Cost/maxCost))
	}
	res.AddNote("normalized to the most expensive configuration; paper shape: raw highest (SC-bound); PBC cuts total ~62%%; wb/wt cut SC at higher PC")
	return res, nil
}

// RunFig13a reproduces Figure 13(a): compression-level trade-offs on the
// case-1 workload (Zstd-analog levels with and without dictionary, PBC,
// Raw).
func RunFig13a(o RunOpts) (*Result, error) {
	o.fill()
	nRecords := int64(o.n(3000))
	nOps := o.n(10000)
	ds := workload.NewKV1()
	spec := workload.WorkloadB(nRecords, ds)
	res := &Result{
		ID: "fig13a", Title: "Compression-level space-performance trade-off",
		Header: []string{"config", "SpaceCost", "PerformanceCost", "cost"},
	}
	suts, err := measureRows([]row{
		{"raw", cacheInst, 0, &TBConfig{Threads: 1}},
		{"zstd-l1", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "zstd-b", CompressLevel: 1, TrainOn: ds}},
		{"zstd-l6", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "zstd-b", CompressLevel: 6, TrainOn: ds}},
		{"zstd-l9", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "zstd-b", CompressLevel: 9, TrainOn: ds}},
		{"zstd-dict-l1", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds}},
		{"zstd-dict-l6", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "zstd-d", CompressLevel: 6, TrainOn: ds}},
		{"zstd-dict-l9", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "zstd-d", CompressLevel: 9, TrainOn: ds}},
		{"pbc", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "pbc", TrainOn: ds}},
	}, filepath.Join(o.Dir, "fig13a"), spec.LoadOps(), NewOpsMulti(spec, nOps, 4), 4)
	if err != nil {
		return nil, err
	}
	for _, e := range price(suts, suts[0].qps, 20) {
		res.AddRow(e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost))
	}
	res.AddNote("paper shape: higher levels trade PC for SC with diminishing ratio returns; pre-trained dict dominates same-level no-dict; practical pick = dict level 1")
	return res, nil
}

// RunFig13b reproduces Figure 13(b): cache-ratio trade-off for write-back
// tiering (in-mem, wb-2X..wb-5X), and validates the Theorem 5.1 optimum
// against the trace's empirical miss-ratio curve.
func RunFig13b(o RunOpts) (*Result, error) {
	o.fill()
	nOps := o.n(20000)
	ui := workload.UserInfo(workload.UserInfoOptions{Ops: nOps})
	pre := workload.Preload(ui, workload.NewKV1())
	res := &Result{
		ID: "fig13b", Title: "Cache-ratio space-performance trade-off",
		Header: []string{"config", "SpaceCost", "PerformanceCost", "cost", "MR"},
	}
	rows := []row{{"in-mem", cacheInst, 0, &TBConfig{Threads: 1}}}
	for x := 2; x <= 5; x++ {
		rows = append(rows, row{fmt.Sprintf("wb-%dX", x), cacheInst, 1, &TBConfig{Persist: "wb", CacheRatioX: float64(x)}})
	}
	suts, err := measureRows(rows, filepath.Join(o.Dir, "fig13b"), pre, ui, 4)
	if err != nil {
		return nil, err
	}
	evals := price(suts, suts[0].qps, 20)
	for i, e := range evals {
		res.AddRow(e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost), fmtF(suts[i].mr))
	}
	// Theorem 5.1 validation from the empirical MRC: SC_cache is the
	// in-memory row's space cost, all data in the cache tier.
	keys := make([]string, len(ui))
	for i, op := range ui {
		keys[i] = op.Key
	}
	mrc := core.BuildMRC(keys).Curve(true)
	in := core.TieredInputs{PCCache: 1, PCMiss: 2, SCCache: evals[0].SC}
	crStar, mrStar, _ := core.OptimalCacheRatio(in, mrc)
	res.AddNote("Theorem 5.1 on empirical MRC: CR*=%.3f (≈1/%.1fX) with MR*=%.3f", crStar, 1/math.Max(crStar, 1e-9), mrStar)
	res.AddNote("paper shape: higher X lowers SC, raises PC and MR; optimum near wb-5X for the read-heavy skewed trace")
	return res, nil
}

// RunTable3 reproduces Table 3: break-even intervals between fast and slow
// TierBase configurations, plus the recommendation for the observed
// User-Info access interval.
func RunTable3(o RunOpts) (*Result, error) {
	o.fill()
	nRecords := int64(o.n(3000))
	nOps := o.n(10000)
	ds := workload.NewKV1()
	spec := workload.WorkloadB(nRecords, ds)
	res := &Result{
		ID: "tab3", Title: "Break-even intervals between configurations",
		Header: []string{"fast", "slow", "interval_s"},
	}
	suts, err := measureRows([]row{
		{"raw", cacheInst, 0, &TBConfig{Threads: 1}},
		{"pmem", pmemInst, 0, &TBConfig{Threads: 1, PMem: true}},
		{"pbc", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "pbc", TrainOn: ds}},
	}, filepath.Join(o.Dir, "tab3"), spec.LoadOps(), NewOpsMulti(spec, nOps, 4), 4)
	if err != nil {
		return nil, err
	}
	measured := make([]core.Measured, len(suts))
	for i, s := range suts {
		measured[i] = core.DefaultTolerance.Apply(s.measured())
	}
	recSize := float64(ds.AvgRecordSize())
	table := core.BreakEvenTable(core.StandardContainer, measured, recSize)
	for _, e := range table {
		res.AddRow(e.Fast, e.Slow, fmtF(e.IntervalS))
	}
	// Observed access interval from the case-1 trace drives the choice.
	interval := workload.Summarize(workload.UserInfo(workload.UserInfoOptions{Ops: o.n(20000)})).MeanAccessInterval
	best, err := core.RecommendStorage(core.StandardContainer, measured, recSize, interval)
	if err != nil {
		return nil, err
	}
	res.AddNote("observed mean access interval: %.0f s (one op a second); recommended config: %s", interval, best.Config)
	res.AddNote("paper shape: raw→pmem < raw→pbc < pmem→pbc; long intervals favor compression")
	return res, nil
}
