package bench

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"tierbase/internal/compress"
	"tierbase/internal/engine"
	"tierbase/internal/workload"
)

// RunFig7 reproduces Figure 7: throughput and p99 latency of TierBase,
// Redis, Memcached and Dragonfly in single-thread and multi-thread modes
// across YCSB load / A / B phases. A row's name is its system and its
// mode: -s single-thread, -m multi-thread.
func RunFig7(o RunOpts) (*Result, error) {
	o.fill()
	res := &Result{
		ID: "fig7", Title: "Caching systems performance (kqps / p99 µs)",
		Header: []string{"system", "mode", "phase", "kqps", "p99_us"},
	}
	for _, r := range []row{
		{name: "tierbase-s", tb: &TBConfig{Threads: 1}},
		{name: "tierbase-m", tb: &TBConfig{Threads: 4}},
		{name: "redis-s"}, {name: "redis-m"}, {name: "memcached-m"}, {name: "dragonfly-m"},
	} {
		system, mode, _ := strings.Cut(r.name, "-")
		mode = map[string]string{"s": "single", "m": "multi"}[mode]
		if err := runPhases(res, r, "", int64(o.n(5000)), o.n(20000), system, mode); err != nil {
			return nil, err
		}
	}
	res.AddNote("paper shape: single-thread TierBase≈Redis > Memcached/Dragonfly; multi-thread Memcached/Dragonfly > TierBase/Redis")
	return res, nil
}

// runPhases opens r's system, persistent files under dir, and drives it
// through YCSB's load phase and then workloads A and B on nRecords Cities
// records, nOps operations each, from four workers. It adds a row to res
// for each phase: label, the phase, kqps and p99. A phase that failed ops
// is refused, as measure refuses it.
func runPhases(res *Result, r row, dir string, nRecords int64, nOps int, label ...string) error {
	ds := workload.NewCities()
	a := workload.WorkloadA(nRecords, ds)
	phases := []struct {
		name string
		ops  []workload.Op
	}{
		{"load", a.LoadOps()},
		{"A", NewOpsMulti(a, nOps, 4)},
		{"B", NewOpsMulti(workload.WorkloadB(nRecords, ds), nOps, 4)},
	}
	sys, err := r.open(dir, logicalBytes(phases[0].ops))
	if err != nil {
		return err
	}
	defer sys.Close()
	for _, ph := range phases {
		dr := drive(sys, ph.ops, 4)
		if dr.Errors > 0 {
			return fmt.Errorf("%s: phase %s: %d of %d ops failed", r.name, ph.name, dr.Errors, len(ph.ops))
		}
		res.AddRow(slices.Concat(label, []string{ph.name, fmtQPS(dr.QPS), fmtDur(dr.P99)})...)
	}
	return nil
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
	res := &Result{
		ID: "fig8", Title: "Persistence mechanisms (kqps / p99 µs)",
		Header: []string{"mechanism", "phase", "kqps", "p99_us"},
	}
	nRecords := int64(o.n(3000))
	for _, r := range []row{
		{name: "wal", tb: &TBConfig{Threads: 1, Persist: "wal"}},
		{name: "wal-pmem", tb: &TBConfig{Threads: 1, Persist: "wal-pmem"}},
		{name: "write-back", tb: &TBConfig{Persist: "wb", CacheRatioX: 1}},
		{name: "write-through", tb: &TBConfig{Persist: "wt", CacheRatioX: 1}},
	} {
		if err := runPhases(res, r, filepath.Join(o.Dir, "fig8-"+r.name), nRecords, o.n(12000), r.name); err != nil {
			return nil, err
		}
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
				setOps[i] = workload.Op{Kind: workload.OpWrite, Key: fmt.Sprintf("key%09d", i), Value: rec}
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
// for single-thread, elastic and multi-thread TierBase. Time is compressed
// 10x relative to the paper (6 s instead of 60). Each command carries a
// ~10µs processing cost so single-thread capacity sits near the paper's
// ~100 kQPS/core operating point. The paper's single/multi Redis series
// are not run: here they would be the same fixed one- and four-worker pool
// over the same stack as tierbase-s and tierbase-m, measured again.
func RunFig9(o RunOpts) (*Result, error) {
	o.fill()
	res := &Result{
		ID: "fig9", Title: "Elastic threading under burst (kqps per window)",
		Header: []string{"t_ms", "tierbase-s", "tierbase-e", "tierbase-m"},
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

	// The header's series: single-thread, elastic and four workers.
	threads := []int{1, 0, 4}
	series := make([][]float64, len(threads))
	for i, n := range threads {
		sys, err := BuildTierBase(TBConfig{Threads: n, OpCost: opCost}, "", 0)
		if err != nil {
			return nil, err
		}
		series[i] = timeline(sys, 8)
		sys.Close()
	}
	nSamples := len(series[0])
	for i := 1; i < len(series); i++ {
		if len(series[i]) < nSamples {
			nSamples = len(series[i])
		}
	}
	for s := 0; s < nSamples; s++ {
		cells := []string{fmt.Sprintf("%d", (s+1)*int(window.Milliseconds()))}
		for i := range threads {
			cells = append(cells, fmtQPS(series[i][s]))
		}
		res.AddRow(cells...)
	}
	res.AddNote("burst window: t in (1500ms, 4500ms]; paper shape: -e matches -s at rest and approaches -m during the burst")
	res.AddNote("redis-s/redis-m are not run: a fixed one- or four-worker pool over this stack is tierbase-s/-m")
	return res, nil
}
