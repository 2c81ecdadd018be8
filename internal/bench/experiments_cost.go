package bench

import (
	"math"
	"path/filepath"

	"tierbase/internal/baselines"
	"tierbase/internal/core"
	"tierbase/internal/trace"
	"tierbase/internal/workload"
)

// measureTB is §5.3's loop for one TierBase row on inst: build it, load
// the snapshot, settle it (dirty keys flushed, the storage tier flushed and
// compacted, as a snapshot at rest is), replay run over workers, flush what
// the replay left dirty, and read throughput and footprint.
func measureTB(cfg TBConfig, inst core.Instance, dir string, load, run []workload.Op, workers int) (costSUT, error) {
	sys, err := BuildTierBase(cfg, dir)
	if err != nil {
		return costSUT{}, err
	}
	defer sys.Close()
	for _, op := range load {
		if err := sys.Set(op.Key, op.Value); err != nil {
			return costSUT{}, err
		}
	}
	if err := sys.st.FlushDirty(); err != nil {
		return costSUT{}, err
	}
	if db := sys.st.DB; db != nil {
		db.Flush()
		db.CompactAll()
	}
	dr := drive(sys, run, workers)
	if err := sys.st.FlushDirty(); err != nil {
		return costSUT{}, err
	}
	logical := float64(logicalBytes(load))
	return costSUT{
		name: cfg.Name,
		inst: inst,
		qps:  dr.QPS,
		fp: core.Footprint{
			DRAM: float64(sys.MemBytes()) / logical,
			PMem: float64(sys.PMemBytes()) / logical,
			Disk: float64(sys.DiskBytes()) / logical,
		},
		tiered: sys.st.DB != nil,
		mr:     sys.st.MissRatio(),
	}, nil
}

// baselineRow is a comparison system in a cost figure: its
// baselines.Build name, which is also the row's label, and how many copies
// of its DRAM a deployment holds (dual replicas = 2).
type baselineRow struct {
	name     string
	inst     core.Instance
	dramMult float64
}

// measureBaselines does the same for comparison systems, each on the same
// load and replay, persistent ones under dir.
func measureBaselines(dir string, rows []baselineRow, load, run []workload.Op) ([]costSUT, error) {
	logical := float64(logicalBytes(load))
	var suts []costSUT
	for _, b := range rows {
		sys, err := baselines.Build(b.name, filepath.Join(dir, b.name))
		if err != nil {
			return nil, err
		}
		for _, op := range load {
			sys.Set(op.Key, op.Value)
		}
		if ls, ok := sys.(*baselines.LSMStore); ok {
			ls.DB().Flush()
			ls.DB().CompactAll()
		}
		dr := drive(sys, run, 4)
		suts = append(suts, costSUT{
			name: b.name, inst: b.inst, qps: dr.QPS,
			fp: core.Footprint{
				DRAM: float64(sys.MemBytes()) * b.dramMult / logical,
				Disk: float64(sys.DiskBytes()) / logical,
			},
		})
		sys.Close()
	}
	return suts, nil
}

// logicalBytes is the key and value bytes ops write.
func logicalBytes(ops []workload.Op) int64 {
	var n int64
	for _, op := range ops {
		n += int64(len(op.Key) + len(op.Value))
	}
	return n
}

// RunFig10 reproduces Figure 10: cost of caching systems under 50/50 and
// 95/5 mixes. The declared workload is 10 GB with QPS = 0.8 × the
// single-thread TierBase reference (the paper's 80k-QPS-vs-100k-capable
// positioning).
func RunFig10(o RunOpts) (*Result, error) {
	o.fill()
	nRecords := int64(o.n(3000))
	nOps := o.n(12000)
	ds := workload.NewCities()
	res := &Result{
		ID: "fig10", Title: "Cost of caching systems",
		Header: []string{"mix", "system", "cost_GB(SC)", "cost_QPS(PC)", "cost"},
	}
	for _, mix := range []struct {
		label string
		spec  workload.Spec
	}{
		{"50/50", workload.WorkloadA(nRecords, ds)},
		{"95/5", workload.WorkloadB(nRecords, ds)},
	} {
		var suts []costSUT
		load, run := mix.spec.LoadOps(), NewOpsMulti(mix.spec, nOps, 4)
		// TierBase configurations.
		tbConfigs := []costRow{
			{TBConfig{Name: "tierbase-s", Threads: 1}, cacheInst},
			{TBConfig{Name: "tierbase-e", Threads: 0}, cacheInst},
			{TBConfig{Name: "tierbase-zstd", Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds}, cacheInst},
			{TBConfig{Name: "tierbase-pbc", Threads: 1, Compressor: "pbc", TrainOn: ds}, cacheInst},
			{TBConfig{Name: "tierbase-pmem", Threads: 1, PMem: true}, pmemInst},
		}
		for _, tc := range tbConfigs {
			sut, err := measureTB(tc.cfg, tc.inst, filepath.Join(o.Dir, "fig10", tc.cfg.Name), load, run, 4)
			if err != nil {
				return nil, err
			}
			suts = append(suts, sut)
		}
		base, err := measureBaselines(filepath.Join(o.Dir, "fig10"), []baselineRow{
			{"redis-s", cacheInst, 1},
			{"memcached-m", bigInst, 1},
			{"dragonfly-m", bigInst, 1},
		}, load, run)
		if err != nil {
			return nil, err
		}
		suts = append(suts, base...)

		// Declared workload relative to the single-thread reference.
		for _, e := range price(suts, 0.8*suts[0].qps, 10) {
			res.AddRow(mix.label, e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost))
		}
	}
	res.AddNote("declared workload: 10GB, QPS=0.8×MaxPerf(tierbase-s); paper shape: memcached lowest SC among plain caches; pmem/compression cut TierBase SC below memcached; elastic halves PC")
	return res, nil
}

// RunFig11 reproduces Figure 11: cost of databases with persistence.
// Declared workload: 10 GB at QPS = 0.4 × the TierBase-WAL reference
// (the paper's 40k positioning), all on 4c16g instances.
func RunFig11(o RunOpts) (*Result, error) {
	o.fill()
	nRecords := int64(o.n(3000))
	nOps := o.n(10000)
	ds := workload.NewCities()
	expected := nRecords * int64(ds.AvgRecordSize()+16)
	res := &Result{
		ID: "fig11", Title: "Cost of databases with persistence",
		Header: []string{"mix", "system", "SpaceCost", "PerformanceCost", "cost"},
	}
	for _, mix := range []struct {
		label string
		spec  workload.Spec
	}{
		{"50/50", workload.WorkloadA(nRecords, ds)},
		{"95/5", workload.WorkloadB(nRecords, ds)},
	} {
		var suts []costSUT
		load, run := mix.spec.LoadOps(), NewOpsMulti(mix.spec, nOps, 4)
		// Tiered rows: the cache tier on standard containers, the storage
		// tier on storInst.
		tbConfigs := []costRow{
			{TBConfig{Name: "tierbase-wal", Threads: 1, Persist: "wal", Replicas: 1}, bigInst},
			{TBConfig{Name: "tierbase-wal-pmem", Threads: 1, Persist: "wal-pmem", Replicas: 1}, bigInst},
			{TBConfig{Name: "tierbase-wt-10X", Threads: 1, Persist: "wt", CacheRatioX: 10, ExpectedLogicalBytes: expected, RTT: missRTT}, cacheInst},
			{TBConfig{Name: "tierbase-wb-10X", Threads: 1, Persist: "wb", CacheRatioX: 10, ExpectedLogicalBytes: expected, Replicas: 1, RTT: missRTT}, cacheInst},
		}
		for _, tc := range tbConfigs {
			sut, err := measureTB(tc.cfg, tc.inst, filepath.Join(o.Dir, "fig11", tc.cfg.Name+mix.label), load, run, 4)
			if err != nil {
				return nil, err
			}
			suts = append(suts, sut)
		}
		base, err := measureBaselines(filepath.Join(o.Dir, "fig11", mix.label), []baselineRow{
			{"redis-aof", bigInst, 2}, // dual replica
			{"cassandra", bigInst, 1},
			{"hbase", bigInst, 1},
		}, load, run)
		if err != nil {
			return nil, err
		}
		suts = append(suts, base...)

		for _, e := range price(suts, 0.4*suts[0].qps, 10) { // tierbase-wal reference
			res.AddRow(mix.label, e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost))
		}
	}
	res.AddNote("paper shape: cassandra/hbase high PC low SC; redis-aof/tierbase-wal low PC high SC; tiered wt/wb balance both; wb beats wt on 50/50, converges on 95/5")
	return res, nil
}

// traceOps turns trace entries into the ops drive replays.
func traceOps(entries []trace.Entry) []workload.Op {
	ops := make([]workload.Op, 0, len(entries))
	for _, e := range entries {
		switch e.Op {
		case trace.OpRead:
			ops = append(ops, workload.Op{Kind: workload.OpRead, Key: e.Key})
		case trace.OpWrite:
			ops = append(ops, workload.Op{Kind: workload.OpUpdate, Key: e.Key, Value: e.Val})
		}
	}
	return ops
}

// caseStudyMeasurements measures every fig12 system on a trace. preload
// seeds the full key population (the sampled data snapshot of §5.3).
func caseStudyMeasurements(o RunOpts, tr *trace.Trace, preload []workload.Op, tag string) ([]costSUT, error) {
	expected := logicalBytes(preload)
	run := traceOps(tr.Entries)
	ds := workload.NewKV1()
	if tag == "recon" {
		ds = workload.NewKV2()
	}

	var suts []costSUT
	tbConfigs := []costRow{
		{TBConfig{Name: "tierbase-raw", Threads: 1}, cacheInst},
		{TBConfig{Name: "tierbase-e", Threads: 0}, cacheInst},
		{TBConfig{Name: "tierbase-pmem", Threads: 1, PMem: true}, pmemInst},
		{TBConfig{Name: "tierbase-pbc", Threads: 1, Compressor: "pbc", TrainOn: ds}, cacheInst},
		{TBConfig{Name: "tierbase-wt-4X", Threads: 1, Persist: "wt", CacheRatioX: 4, ExpectedLogicalBytes: expected, RTT: missRTT}, cacheInst},
		{TBConfig{Name: "tierbase-wb-4X", Threads: 1, Persist: "wb", CacheRatioX: 4, ExpectedLogicalBytes: expected, Replicas: 1, RTT: missRTT}, cacheInst},
	}
	for _, tc := range tbConfigs {
		sut, err := measureTB(tc.cfg, tc.inst, filepath.Join(o.Dir, "fig12", tag+tc.cfg.Name), preload, run, 4)
		if err != nil {
			return nil, err
		}
		suts = append(suts, sut)
	}
	base, err := measureBaselines(filepath.Join(o.Dir, "fig12", tag), []baselineRow{
		{"redis", cacheInst, 2}, // dual-replica reliability per §6.5.1
		{"memcached-m", bigInst, 2},
		{"dragonfly-m", bigInst, 2},
		{"cassandra", bigInst, 1},
		{"hbase", bigInst, 1},
	}, preload, run)
	if err != nil {
		return nil, err
	}
	return append(suts, base...), nil
}

// tracePreload is the snapshot a trace replays against: every key it
// touches, in order of first touch, with the trace's value or else a
// record of ds.
func tracePreload(tr *trace.Trace, ds workload.Dataset) []workload.Op {
	var preload []workload.Op
	seen := map[string]bool{}
	for _, e := range tr.Entries {
		if seen[e.Key] {
			continue
		}
		seen[e.Key] = true
		v := e.Val
		if v == nil {
			v = ds.Record(int64(len(preload)))
		}
		preload = append(preload, workload.Op{Kind: workload.OpInsert, Key: e.Key, Value: v})
	}
	return preload
}

// RunFig12 reproduces Figure 12: replayed case-study costs.
func RunFig12(o RunOpts) (*Result, error) {
	o.fill()
	res := &Result{
		ID: "fig12", Title: "Case studies (replayed traces)",
		Header: []string{"case", "system", "cost_GB(SC)", "cost_QPS(PC)", "cost", "MR"},
	}
	// Case 1: User Info Service (read-heavy 32:1, zipfian).
	ui := trace.GenUserInfo(trace.UserInfoOptions{Ops: o.n(25000)})
	uiPre := tracePreload(ui, workload.NewKV1())
	suts, err := caseStudyMeasurements(o, ui, uiPre, "ui")
	if err != nil {
		return nil, err
	}
	for i, e := range price(suts, suts[0].qps, 20) { // tierbase-raw reference
		res.AddRow("userinfo", e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost), fmtF(suts[i].mr))
	}
	// Case 2: Capital Reconciliation (1:1, temporal skew).
	rc := trace.GenReconciliation(trace.ReconciliationOptions{Ops: o.n(25000)})
	rcPre := tracePreload(rc, workload.NewKV2())
	suts2, err := caseStudyMeasurements(o, rc, rcPre, "recon")
	if err != nil {
		return nil, err
	}
	for i, e := range price(suts2, 0.2*suts2[0].qps, 10) {
		res.AddRow("reconciliation", e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost), fmtF(suts2[i].mr))
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
	ui := trace.GenUserInfo(trace.UserInfoOptions{Ops: o.n(20000)})
	pre := tracePreload(ui, workload.NewKV1())
	logical := logicalBytes(pre)
	configs := []costRow{
		{TBConfig{Name: "tierbase-raw", Threads: 1}, cacheInst},
		{TBConfig{Name: "tierbase-pmem", Threads: 1, PMem: true}, pmemInst},
		{TBConfig{Name: "tierbase-pbc", Threads: 1, Compressor: "pbc", TrainOn: workload.NewKV1()}, cacheInst},
		{TBConfig{Name: "tierbase-wb-5X", Threads: 1, Persist: "wb", CacheRatioX: 5, ExpectedLogicalBytes: logical, Replicas: 1, RTT: missRTT}, cacheInst},
		{TBConfig{Name: "tierbase-wt-5X", Threads: 1, Persist: "wt", CacheRatioX: 5, ExpectedLogicalBytes: logical, RTT: missRTT}, cacheInst},
	}
	var suts []costSUT
	run := traceOps(ui.Entries)
	for _, tc := range configs {
		sut, err := measureTB(tc.cfg, tc.inst, filepath.Join(o.Dir, "fig1", tc.cfg.Name), pre, run, 4)
		if err != nil {
			return nil, err
		}
		suts = append(suts, sut)
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
	configs := []TBConfig{
		{Name: "raw", Threads: 1},
		{Name: "zstd-l1", Threads: 1, Compressor: "zstd-b", CompressLevel: 1, TrainOn: ds},
		{Name: "zstd-l6", Threads: 1, Compressor: "zstd-b", CompressLevel: 6, TrainOn: ds},
		{Name: "zstd-l9", Threads: 1, Compressor: "zstd-b", CompressLevel: 9, TrainOn: ds},
		{Name: "zstd-dict-l1", Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds},
		{Name: "zstd-dict-l6", Threads: 1, Compressor: "zstd-d", CompressLevel: 6, TrainOn: ds},
		{Name: "zstd-dict-l9", Threads: 1, Compressor: "zstd-d", CompressLevel: 9, TrainOn: ds},
		{Name: "pbc", Threads: 1, Compressor: "pbc", TrainOn: ds},
	}
	var suts []costSUT
	load, run := spec.LoadOps(), NewOpsMulti(spec, nOps, 4)
	for _, cfg := range configs {
		sut, err := measureTB(cfg, cacheInst, "", load, run, 4)
		if err != nil {
			return nil, err
		}
		suts = append(suts, sut)
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
	ui := trace.GenUserInfo(trace.UserInfoOptions{Ops: nOps})
	pre := tracePreload(ui, workload.NewKV1())
	logical := logicalBytes(pre)
	res := &Result{
		ID: "fig13b", Title: "Cache-ratio space-performance trade-off",
		Header: []string{"config", "SpaceCost", "PerformanceCost", "cost", "MR"},
	}
	configs := []TBConfig{
		{Name: "in-mem", Threads: 1},
		{Name: "wb-2X", Threads: 1, Persist: "wb", CacheRatioX: 2, ExpectedLogicalBytes: logical, Replicas: 1, RTT: missRTT},
		{Name: "wb-3X", Threads: 1, Persist: "wb", CacheRatioX: 3, ExpectedLogicalBytes: logical, Replicas: 1, RTT: missRTT},
		{Name: "wb-4X", Threads: 1, Persist: "wb", CacheRatioX: 4, ExpectedLogicalBytes: logical, Replicas: 1, RTT: missRTT},
		{Name: "wb-5X", Threads: 1, Persist: "wb", CacheRatioX: 5, ExpectedLogicalBytes: logical, Replicas: 1, RTT: missRTT},
	}
	var suts []costSUT
	run := traceOps(ui.Entries)
	for _, cfg := range configs {
		sut, err := measureTB(cfg, cacheInst, filepath.Join(o.Dir, "fig13b", cfg.Name), pre, run, 4)
		if err != nil {
			return nil, err
		}
		suts = append(suts, sut)
	}
	evals := price(suts, suts[0].qps, 20)
	for i, e := range evals {
		res.AddRow(e.Measured.Config, fmtF(e.SC), fmtF(e.PC), fmtF(e.Cost), fmtF(suts[i].mr))
	}
	// Theorem 5.1 validation from the empirical MRC: SC_cache is the
	// in-memory row's space cost, all data in the cache tier.
	mrc := core.BuildMRC(ui.Keys()).Curve(true)
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
	configs := []costRow{
		{TBConfig{Name: "raw", Threads: 1}, cacheInst},
		{TBConfig{Name: "pmem", Threads: 1, PMem: true}, pmemInst},
		{TBConfig{Name: "pbc", Threads: 1, Compressor: "pbc", TrainOn: ds}, cacheInst},
	}
	var measured []core.Measured
	load, run := spec.LoadOps(), NewOpsMulti(spec, nOps, 4)
	for _, tc := range configs {
		sut, err := measureTB(tc.cfg, tc.inst, "", load, run, 4)
		if err != nil {
			return nil, err
		}
		measured = append(measured, core.DefaultTolerance.Apply(sut.measured()))
	}
	recSize := float64(ds.AvgRecordSize())
	table := core.BreakEvenTable(core.StandardContainer, measured, recSize)
	for _, e := range table {
		res.AddRow(e.Fast, e.Slow, fmtF(e.IntervalS))
	}
	// Observed access interval from the case-1 trace drives the choice.
	ui := trace.GenUserInfo(trace.UserInfoOptions{Ops: o.n(20000)})
	st := ui.Summarize()
	best, err := core.RecommendStorage(core.StandardContainer, measured, recSize, st.MeanAccessIntervalS)
	if err != nil {
		return nil, err
	}
	res.AddNote("observed mean access interval: %.0f s (trace ticks as seconds); recommended config: %s", st.MeanAccessIntervalS, best.Config)
	res.AddNote("paper shape: raw→pmem < raw→pbc < pmem→pbc; long intervals favor compression")
	return res, nil
}
