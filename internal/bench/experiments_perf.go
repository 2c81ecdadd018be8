package bench

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"tierbase/internal/baselines"
	"tierbase/internal/compress"
	"tierbase/internal/engine"
	"tierbase/internal/workload"
)

// RunFig7 reproduces Figure 7: throughput and p99 latency of TierBase,
// Redis, Memcached and Dragonfly in single-thread and multi-thread modes
// across YCSB load / A / B phases.
func RunFig7(o RunOpts) (*Result, error) {
	o.fill()
	nRecords := int64(o.n(5000))
	nOps := o.n(20000)
	res := &Result{
		ID: "fig7", Title: "Caching systems performance (kqps / p99 µs)",
		Header: []string{"system", "mode", "phase", "kqps", "p99_us"},
	}

	type sut struct {
		name, mode string
		sys        kvOp
		workers    int
		close      func()
	}
	var suts []sut

	mkTB := func(name string, threads, workers int) (sut, error) {
		s, err := BuildTierBase(TBConfig{Name: name, Threads: threads}, "")
		if err != nil {
			return sut{}, err
		}
		mode := "single"
		if threads > 1 {
			mode = "multi"
		}
		return sut{name: "tierbase", mode: mode, sys: s, workers: workers, close: func() { s.Close() }}, nil
	}
	tbS, err := mkTB("tierbase-s", 1, 4)
	if err != nil {
		return nil, err
	}
	suts = append(suts, tbS)
	tbM, err := mkTB("tierbase-m", 4, 4)
	if err != nil {
		return nil, err
	}
	suts = append(suts, tbM)

	redisS, err := baselines.NewRedisLike("", 1)
	if err != nil {
		return nil, err
	}
	suts = append(suts, sut{name: "redis", mode: "single", sys: redisS, workers: 4, close: func() { redisS.Close() }})
	redisM, err := baselines.NewRedisLike("", 4)
	if err != nil {
		return nil, err
	}
	suts = append(suts, sut{name: "redis", mode: "multi", sys: redisM, workers: 4, close: func() { redisM.Close() }})

	mc := baselines.NewMemcachedLike(0, 4)
	suts = append(suts, sut{name: "memcached", mode: "multi", sys: mc, workers: 4, close: func() { mc.Close() }})
	df := baselines.NewDragonflyLike(4)
	suts = append(suts, sut{name: "dragonfly", mode: "multi", sys: df, workers: 4, close: func() { df.Close() }})

	ds := workload.NewCities()
	for _, st := range suts {
		// Load phase.
		spec := workload.WorkloadA(nRecords, ds)
		loadOps := spec.LoadOps()
		dr := drive(st.sys, loadOps, st.workers)
		res.AddRow(st.name, st.mode, "load", fmtQPS(dr.QPS), fmtDur(dr.P99))
		// Workload A and B run phases.
		for _, ph := range []struct {
			name string
			spec workload.Spec
		}{
			{"A", workload.WorkloadA(nRecords, ds)},
			{"B", workload.WorkloadB(nRecords, ds)},
		} {
			ops := NewOpsMulti(ph.spec, nOps, st.workers)
			dr := drive(st.sys, ops, st.workers)
			res.AddRow(st.name, st.mode, ph.name, fmtQPS(dr.QPS), fmtDur(dr.P99))
		}
		st.close()
	}
	res.AddNote("paper shape: single-thread TierBase≈Redis > Memcached/Dragonfly; multi-thread Memcached/Dragonfly > TierBase/Redis")
	return res, nil
}

// NewOpsMulti generates n run-phase ops from independent per-worker
// generator streams (concatenated), so concurrent workers replay distinct
// sequences.
func NewOpsMulti(spec workload.Spec, n, workers int) []workload.Op {
	if workers < 1 {
		workers = 1
	}
	per := n / workers
	var out []workload.Op
	for w := 0; w < workers; w++ {
		g := workload.NewGenerator(spec, int64(w))
		out = append(out, g.Ops(per)...)
	}
	return out
}

// RunFig8 reproduces Figure 8: TierBase under four persistence mechanisms
// (WAL, WAL-PMem, write-back, write-through) in single-thread mode.
func RunFig8(o RunOpts) (*Result, error) {
	o.fill()
	nRecords := int64(o.n(3000))
	nOps := o.n(12000)
	res := &Result{
		ID: "fig8", Title: "Persistence mechanisms (kqps / p99 µs)",
		Header: []string{"mechanism", "phase", "kqps", "p99_us"},
	}
	ds := workload.NewCities()
	expected := nRecords * int64(ds.AvgRecordSize()+16)

	configs := []TBConfig{
		{Name: "wal", Threads: 1, Persist: "wal"},
		{Name: "wal-pmem", Threads: 1, Persist: "wal-pmem"},
		{Name: "write-back", Threads: 1, Persist: "wb", CacheRatioX: 1, ExpectedLogicalBytes: expected, RTT: missRTT},
		{Name: "write-through", Threads: 1, Persist: "wt", CacheRatioX: 1, ExpectedLogicalBytes: expected, RTT: missRTT},
	}
	for _, cfg := range configs {
		dir := filepath.Join(o.Dir, "fig8-"+cfg.Name)
		sys, err := BuildTierBase(cfg, dir)
		if err != nil {
			return nil, err
		}
		spec := workload.WorkloadA(nRecords, ds)
		dr := drive(sys, spec.LoadOps(), 4)
		res.AddRow(cfg.Name, "load", fmtQPS(dr.QPS), fmtDur(dr.P99))
		for _, ph := range []struct {
			name string
			spec workload.Spec
		}{
			{"A", workload.WorkloadA(nRecords, ds)},
			{"B", workload.WorkloadB(nRecords, ds)},
		} {
			ops := NewOpsMulti(ph.spec, nOps, 4)
			dr := drive(sys, ops, 4)
			res.AddRow(cfg.Name, ph.name, fmtQPS(dr.QPS), fmtDur(dr.P99))
		}
		sys.Close()
	}
	res.AddNote("paper shape: write-back > WAL > WAL-PMem > write-through on load/A; gap narrows on read-heavy B")
	return res, nil
}

// RunTable2 reproduces Table 2: compression ratio and SET/GET throughput
// for PBC, Zstd-d(ict analog), Zstd-b(ase analog) and Raw across the
// Cities, KV1 and KV2 datasets.
func RunTable2(o RunOpts) (*Result, error) {
	o.fill()
	nTrain := o.n(500)
	nEval := o.n(2000)
	res := &Result{
		ID: "tab2", Title: "Compression techniques",
		Header: []string{"dataset", "method", "comp_ratio", "overall_ratio", "set_kqps", "get_kqps"},
	}
	for _, ds := range []workload.Dataset{workload.NewCities(), workload.NewKV1(), workload.NewKV2()} {
		train := workload.Sample(ds, nTrain)
		eval := make([][]byte, nEval)
		for i := range eval {
			eval[i] = ds.Record(int64(100000 + i))
		}
		for _, method := range []struct {
			label, name string
		}{
			{"pbc", "pbc"}, {"zstd-d", "zstd-d"}, {"zstd-b", "zstd-b"}, {"raw", "raw"},
		} {
			c, err := compress.ByName(method.name, 0)
			if err != nil {
				return nil, err
			}
			if err := c.Train(train); err != nil {
				return nil, err
			}
			ratio := compress.MeasureRatio(c, eval)

			// Overall ratio: engine-resident bytes vs raw engine bytes
			// (keys + per-item overhead dilute the value-only ratio, as in
			// the paper's "Overall Comp. Ratio").
			engRaw := engine.New(engine.Options{})
			engC := engine.New(engine.Options{Compressor: c})
			for i, rec := range eval {
				k := fmt.Sprintf("key%09d", i)
				engRaw.Set(k, rec)
				engC.Set(k, rec)
			}
			overall := float64(engC.MemUsed()) / float64(engRaw.MemUsed())

			// SET throughput.
			setOps := make([]workload.Op, nEval)
			for i, rec := range eval {
				setOps[i] = workload.Op{Kind: workload.OpUpdate, Key: fmt.Sprintf("key%09d", i), Value: rec}
			}
			target := engine.New(engine.Options{Compressor: c})
			setDR := drive(engineKV{target}, setOps, 1)
			// GET throughput.
			getOps := make([]workload.Op, nEval)
			for i := range getOps {
				getOps[i] = workload.Op{Kind: workload.OpRead, Key: fmt.Sprintf("key%09d", i%nEval)}
			}
			getDR := drive(engineKV{target}, getOps, 1)

			res.AddRow(ds.Name(), method.label, fmtRatio(ratio), fmtRatio(overall),
				fmtQPS(setDR.QPS), fmtQPS(getDR.QPS))
		}
	}
	res.AddNote("comp_ratio is value-only compressed/raw (lower=better); overall includes keys+engine overhead")
	res.AddNote("paper shape: ratio PBC<Zstd-d<Zstd-b; GET PBC≈Raw>Zstd; SET Raw>pretrained>Zstd-b")
	return res, nil
}

// engineKV adapts a bare engine to the harness op surface.
type engineKV struct{ e *engine.Engine }

func (e engineKV) Set(key string, val []byte) error { return e.e.Set(key, val) }
func (e engineKV) Get(key string) ([]byte, error)   { return e.e.Get(key) }

// RunFig9 reproduces Figure 9: throughput timeline under a workload burst
// for single-thread, elastic and multi-thread TierBase plus single/multi
// Redis. Time is compressed 10x relative to the paper (6 s instead of 60).
// Each command carries a ~10µs processing cost so single-thread capacity
// sits near the paper's ~100 kQPS/core operating point; the Redis series
// are architecture-identical fixed-pool miniatures (see baselines docs).
func RunFig9(o RunOpts) (*Result, error) {
	o.fill()
	res := &Result{
		ID: "fig9", Title: "Elastic threading under burst (kqps per window)",
		Header: []string{"t_ms", "tierbase-s", "tierbase-e", "tierbase-m", "redis-s", "redis-m"},
	}
	nRecords := int64(o.n(2000))
	ds := workload.NewCities()
	spec := workload.WorkloadB(nRecords, ds)
	const opCost = 10 * time.Microsecond

	const (
		window    = 250 * time.Millisecond
		lowPhase  = 1500 * time.Millisecond
		highPhase = 3000 * time.Millisecond
		total     = lowPhase + highPhase + lowPhase
	)
	timeline := func(sys kvOp, workers int) []float64 {
		// Preload.
		for _, op := range spec.LoadOps() {
			sys.Set(op.Key, op.Value)
		}
		var done atomic.Int64
		stop := make(chan struct{})
		lowRate := 100 * time.Microsecond // paced trickle in low phases
		for w := 0; w < workers; w++ {
			g := workload.NewGenerator(spec, int64(w))
			go func() {
				start := time.Now()
				for {
					select {
					case <-stop:
						return
					default:
					}
					op := g.Next()
					if op.Kind == workload.OpRead {
						sys.Get(op.Key)
					} else {
						sys.Set(op.Key, op.Value)
					}
					done.Add(1)
					el := time.Since(start)
					inBurst := el > lowPhase && el <= lowPhase+highPhase
					if !inBurst {
						time.Sleep(lowRate)
					}
				}
			}()
		}
		var samples []float64
		prev := int64(0)
		ticker := time.NewTicker(window)
		defer ticker.Stop()
		deadline := time.Now().Add(total)
		for time.Now().Before(deadline) {
			<-ticker.C
			cur := done.Load()
			samples = append(samples, float64(cur-prev)/window.Seconds())
			prev = cur
		}
		close(stop)
		return samples
	}

	type sysDef struct {
		name    string
		threads int // 0 = elastic
		workers int
	}
	defs := []sysDef{
		{"tierbase-s", 1, 8},
		{"tierbase-e", 0, 8},
		{"tierbase-m", 4, 8},
		{"redis-s", 1, 8},
		{"redis-m", 4, 8},
	}
	series := make([][]float64, len(defs))
	for i, d := range defs {
		sys, err := BuildTierBase(TBConfig{Name: d.name, Threads: d.threads, OpCost: opCost}, "")
		if err != nil {
			return nil, err
		}
		series[i] = timeline(sys, d.workers)
		sys.Close()
	}
	nSamples := len(series[0])
	for i := 1; i < len(series); i++ {
		if len(series[i]) < nSamples {
			nSamples = len(series[i])
		}
	}
	for s := 0; s < nSamples; s++ {
		row := []string{fmt.Sprintf("%d", (s+1)*int(window.Milliseconds()))}
		for i := range defs {
			row = append(row, fmtQPS(series[i][s]))
		}
		res.AddRow(row...)
	}
	res.AddNote("burst window: t in (1500ms, 4500ms]; paper shape: -e matches -s at rest and approaches -m during the burst")
	return res, nil
}
