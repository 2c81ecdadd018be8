package bench

import (
	"math"
	"path/filepath"

	"tierbase/internal/baselines"
	"tierbase/internal/core"
	"tierbase/internal/trace"
	"tierbase/internal/workload"
)

// costSUT is one measured system-under-test for a cost experiment.
type costSUT struct {
	name   string
	inst   instanceSpec
	cap    capability
	tiered bool    // price storage tier separately
	mr     float64 // measured miss ratio (tiered configs)
}

// price returns (PC, SC) for the declared workload.
func (s costSUT) price(declQPS, declDataGB float64) (pc, sc float64) {
	if s.tiered {
		return tieredCosts(s.cap, declQPS, declDataGB, s.inst)
	}
	return smoothCosts(s.cap, s.inst, declQPS, declDataGB)
}

// measureTB is §5.3's loop for one TierBase row: build it, load the
// snapshot, settle it (dirty keys flushed, the storage tier flushed and
// compacted, as a snapshot at rest is), replay run over workers, flush what
// the replay left dirty, and read the capability. inst is the caller's.
func measureTB(cfg TBConfig, dir string, load, run []workload.Op, workers int) (costSUT, error) {
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
		cap: capability{
			qpsPerInst:     dr.QPS,
			dramPerLogical: float64(sys.MemBytes()) / logical,
			pmemPerLogical: float64(sys.PMemBytes()) / logical,
			diskPerLogical: float64(sys.DiskBytes()) / logical,
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
	inst     instanceSpec
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
			name: b.name, inst: b.inst,
			cap: capability{
				qpsPerInst:     dr.QPS,
				dramPerLogical: float64(sys.MemBytes()) * b.dramMult / logical,
				diskPerLogical: float64(sys.DiskBytes()) / logical,
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
		tbConfigs := []struct {
			cfg  TBConfig
			inst instanceSpec
		}{
			{TBConfig{Name: "tierbase-s", Threads: 1}, cacheInst},
			{TBConfig{Name: "tierbase-e", Threads: 0}, cacheInst},
			{TBConfig{Name: "tierbase-zstd", Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds}, cacheInst},
			{TBConfig{Name: "tierbase-pbc", Threads: 1, Compressor: "pbc", TrainOn: ds}, cacheInst},
			{TBConfig{Name: "tierbase-pmem", Threads: 1, PMem: true}, pmemInst},
		}
		for _, tc := range tbConfigs {
			sut, err := measureTB(tc.cfg, filepath.Join(o.Dir, "fig10", tc.cfg.Name), load, run, 4)
			if err != nil {
				return nil, err
			}
			sut.inst = tc.inst
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
		ref := suts[0].cap.qpsPerInst
		declQPS, declData := 0.8*ref, 10.0
		for _, s := range suts {
			pc, sc := s.price(declQPS, declData)
			res.AddRow(mix.label, s.name, fmtF(sc), fmtF(pc), fmtF(math.Max(pc, sc)))
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
		tbConfigs := []TBConfig{
			{Name: "tierbase-wal", Threads: 1, Persist: "wal", Replicas: 1},
			{Name: "tierbase-wal-pmem", Threads: 1, Persist: "wal-pmem", Replicas: 1},
			{Name: "tierbase-wt-10X", Threads: 1, Persist: "wt", CacheRatioX: 10, ExpectedLogicalBytes: expected, RTT: missRTT},
			{Name: "tierbase-wb-10X", Threads: 1, Persist: "wb", CacheRatioX: 10, ExpectedLogicalBytes: expected, Replicas: 1, RTT: missRTT},
		}
		for _, cfg := range tbConfigs {
			sut, err := measureTB(cfg, filepath.Join(o.Dir, "fig11", cfg.Name+mix.label), load, run, 4)
			if err != nil {
				return nil, err
			}
			sut.inst = bigInst
			if sut.tiered {
				sut.inst = cacheInst // cache tier on standard containers; storage priced via storInst
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

		ref := suts[0].cap.qpsPerInst // tierbase-wal reference
		declQPS, declData := 0.4*ref, 10.0
		for _, s := range suts {
			pc, sc := s.price(declQPS, declData)
			res.AddRow(mix.label, s.name, fmtF(sc), fmtF(pc), fmtF(math.Max(pc, sc)))
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
	rtt := missRTT
	tbConfigs := []struct {
		cfg  TBConfig
		inst instanceSpec
	}{
		{TBConfig{Name: "tierbase-raw", Threads: 1}, cacheInst},
		{TBConfig{Name: "tierbase-e", Threads: 0}, cacheInst},
		{TBConfig{Name: "tierbase-pmem", Threads: 1, PMem: true}, pmemInst},
		{TBConfig{Name: "tierbase-pbc", Threads: 1, Compressor: "pbc", TrainOn: ds}, cacheInst},
		{TBConfig{Name: "tierbase-wt-4X", Threads: 1, Persist: "wt", CacheRatioX: 4, ExpectedLogicalBytes: expected, RTT: rtt}, cacheInst},
		{TBConfig{Name: "tierbase-wb-4X", Threads: 1, Persist: "wb", CacheRatioX: 4, ExpectedLogicalBytes: expected, Replicas: 1, RTT: rtt}, cacheInst},
	}
	for _, tc := range tbConfigs {
		sut, err := measureTB(tc.cfg, filepath.Join(o.Dir, "fig12", tag+tc.cfg.Name), preload, run, 4)
		if err != nil {
			return nil, err
		}
		sut.inst = tc.inst
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
	ref := suts[0].cap.qpsPerInst // tierbase-raw
	declQPS, declData := 1.0*ref, 20.0
	for _, s := range suts {
		pc, sc := s.price(declQPS, declData)
		res.AddRow("userinfo", s.name, fmtF(sc), fmtF(pc), fmtF(math.Max(pc, sc)), fmtF(s.mr))
	}
	// Case 2: Capital Reconciliation (1:1, temporal skew).
	rc := trace.GenReconciliation(trace.ReconciliationOptions{Ops: o.n(25000)})
	rcPre := tracePreload(rc, workload.NewKV2())
	suts2, err := caseStudyMeasurements(o, rc, rcPre, "recon")
	if err != nil {
		return nil, err
	}
	ref2 := suts2[0].cap.qpsPerInst
	declQPS2, declData2 := 0.2*ref2, 10.0
	for _, s := range suts2 {
		pc, sc := s.price(declQPS2, declData2)
		res.AddRow("reconciliation", s.name, fmtF(sc), fmtF(pc), fmtF(math.Max(pc, sc)), fmtF(s.mr))
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
	rtt := missRTT
	configs := []struct {
		cfg  TBConfig
		inst instanceSpec
	}{
		{TBConfig{Name: "tierbase-raw", Threads: 1}, cacheInst},
		{TBConfig{Name: "tierbase-pmem", Threads: 1, PMem: true}, pmemInst},
		{TBConfig{Name: "tierbase-pbc", Threads: 1, Compressor: "pbc", TrainOn: workload.NewKV1()}, cacheInst},
		{TBConfig{Name: "tierbase-wb-5X", Threads: 1, Persist: "wb", CacheRatioX: 5, ExpectedLogicalBytes: logical, Replicas: 1, RTT: rtt}, cacheInst},
		{TBConfig{Name: "tierbase-wt-5X", Threads: 1, Persist: "wt", CacheRatioX: 5, ExpectedLogicalBytes: logical, RTT: rtt}, cacheInst},
	}
	var suts []costSUT
	run := traceOps(ui.Entries)
	for _, tc := range configs {
		sut, err := measureTB(tc.cfg, filepath.Join(o.Dir, "fig1", tc.cfg.Name), pre, run, 4)
		if err != nil {
			return nil, err
		}
		sut.inst = tc.inst
		suts = append(suts, sut)
	}
	declQPS, declData := 1.0*suts[0].cap.qpsPerInst, 20.0
	type row struct{ sc, pc, cost float64 }
	rows := make([]row, len(suts))
	var maxCost float64
	for i, s := range suts {
		pc, sc := s.price(declQPS, declData)
		rows[i] = row{sc: sc, pc: pc, cost: math.Max(pc, sc)}
		maxCost = math.Max(maxCost, math.Max(pc, sc))
	}
	for i, s := range suts {
		res.AddRow(s.name,
			fmtF(rows[i].sc/maxCost), fmtF(rows[i].pc/maxCost), fmtF(rows[i].cost/maxCost))
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
		sut, err := measureTB(cfg, "", load, run, 4)
		if err != nil {
			return nil, err
		}
		sut.inst = cacheInst
		suts = append(suts, sut)
	}
	declQPS, declData := 1.0*suts[0].cap.qpsPerInst, 20.0
	for _, s := range suts {
		pc, sc := s.price(declQPS, declData)
		res.AddRow(s.name, fmtF(sc), fmtF(pc), fmtF(math.Max(pc, sc)))
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
	rtt := missRTT
	configs := []TBConfig{
		{Name: "in-mem", Threads: 1},
		{Name: "wb-2X", Threads: 1, Persist: "wb", CacheRatioX: 2, ExpectedLogicalBytes: logical, Replicas: 1, RTT: rtt},
		{Name: "wb-3X", Threads: 1, Persist: "wb", CacheRatioX: 3, ExpectedLogicalBytes: logical, Replicas: 1, RTT: rtt},
		{Name: "wb-4X", Threads: 1, Persist: "wb", CacheRatioX: 4, ExpectedLogicalBytes: logical, Replicas: 1, RTT: rtt},
		{Name: "wb-5X", Threads: 1, Persist: "wb", CacheRatioX: 5, ExpectedLogicalBytes: logical, Replicas: 1, RTT: rtt},
	}
	var suts []costSUT
	run := traceOps(ui.Entries)
	for _, cfg := range configs {
		sut, err := measureTB(cfg, filepath.Join(o.Dir, "fig13b", cfg.Name), pre, run, 4)
		if err != nil {
			return nil, err
		}
		sut.inst = cacheInst
		suts = append(suts, sut)
	}
	declQPS, declData := 1.0*suts[0].cap.qpsPerInst, 20.0
	for _, s := range suts {
		pc, sc := s.price(declQPS, declData)
		res.AddRow(s.name, fmtF(sc), fmtF(pc), fmtF(math.Max(pc, sc)), fmtF(s.mr))
	}
	// Theorem 5.1 validation from the empirical MRC.
	mrc := core.BuildMRC(ui.Keys()).Curve(true)
	in := core.TieredInputs{
		PCCache: 1, PCMiss: 2,
		SCCache: declData * suts[0].cap.dramPerLogical / (cacheInst.dramGB * usableFrac),
	}
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
	configs := []struct {
		cfg  TBConfig
		inst instanceSpec
	}{
		{TBConfig{Name: "raw", Threads: 1}, cacheInst},
		{TBConfig{Name: "pmem", Threads: 1, PMem: true}, pmemInst},
		{TBConfig{Name: "pbc", Threads: 1, Compressor: "pbc", TrainOn: ds}, cacheInst},
	}
	var measured []core.Measured
	load, run := spec.LoadOps(), NewOpsMulti(spec, nOps, 4)
	for _, tc := range configs {
		sut, err := measureTB(tc.cfg, "", load, run, 4)
		if err != nil {
			return nil, err
		}
		maxSpace := 1.0 / spaceInstances(sut.cap, tc.inst, 1.0) // GB per instance
		measured = append(measured, core.Measured{
			Config:     tc.cfg.Name,
			MaxPerfQPS: sut.cap.qpsPerInst / tc.inst.cost,
			MaxSpaceGB: maxSpace / tc.inst.cost,
		})
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
