// Command cost-advisor applies the Space-Performance Cost Model (§2, §5)
// to a described workload: it micro-benchmarks the candidate TierBase
// configurations on a matching synthetic dataset, prices each with the
// cost metrics of Definition 2, and prints the optimal configuration
// (Theorem 2.1), the break-even intervals (Equation 5 / Table 3), and the
// storage recommendation for the workload's access interval.
//
// Usage:
//
//	cost-advisor -qps 80000 -data-gb 10 -read-ratio 0.95 -dataset kv1 \
//	             -access-interval 1018
package main

import (
	"flag"
	"fmt"
	"log"

	"tierbase/internal/core"
	"tierbase/internal/stack"
	"tierbase/internal/workload"
)

func main() {
	var (
		qps       = flag.Float64("qps", 80000, "workload queries per second")
		dataGB    = flag.Float64("data-gb", 10, "total data volume in GB")
		readRatio = flag.Float64("read-ratio", 0.95, "fraction of reads")
		dataset   = flag.String("dataset", "kv1", "value shape: cities | kv1 | kv2 | random")
		interval  = flag.Float64("access-interval", 0, "mean per-key access interval in seconds (0 = skip break-even advice)")
		refQPS    = flag.Float64("ref-qps", 100000, "assumed per-core QPS of the raw configuration (scales relative measurements to your fleet)")

		probeOps   = flag.Int("probe-ops", 200000, "live MR probe: reads driven through an in-process tiered store (0 = skip)")
		probeKeys  = flag.Int("probe-keys", 20000, "live MR probe: distinct keys")
		cacheRatio = flag.Float64("cache-ratio", 0.1, "live MR probe: cache capacity as a fraction of data bytes")
		probeDist  = flag.String("distribution", "zipfian", "live MR probe key distribution: zipfian | uniform | hotspot | hotspot-shift")
	)
	flag.Parse()

	ds := workload.DatasetByName(*dataset)
	w := core.Workload{
		Name: "advised", QPS: *qps, DataSizeGB: *dataGB,
		ReadRatio: *readRatio, AvgRecordBytes: float64(ds.AvgRecordSize()),
	}

	fmt.Printf("workload: %.0f QPS, %.1f GB, %.0f%% reads, ~%dB records (%s-shaped)\n\n",
		w.QPS, w.DataSizeGB, w.ReadRatio*100, int(w.AvgRecordBytes), ds.Name())

	configs, err := measureConfigs(ds, *refQPS)
	if err != nil {
		log.Fatalf("cost-advisor: %v", err)
	}

	rep, err := core.FindOptimal(w, core.StandardContainer,
		configNames(configs), evaluator(configs), core.DefaultTolerance)
	if err != nil {
		log.Fatalf("cost-advisor: %v", err)
	}
	fmt.Println(rep.String())

	fmt.Println("break-even intervals (Eq. 5):")
	var ms []core.Measured
	for _, m := range configs {
		ms = append(ms, m)
	}
	for _, e := range core.BreakEvenTable(core.StandardContainer, ms, w.AvgRecordBytes) {
		fmt.Printf("  %-12s -> %-12s %10.1f s\n", e.Fast, e.Slow, e.IntervalS)
	}
	if *interval > 0 {
		best, err := core.RecommendStorage(core.StandardContainer, ms, w.AvgRecordBytes, *interval)
		if err == nil {
			fmt.Printf("\nfor a %.0f s mean access interval, use: %s\n", *interval, best.Config)
		}
	}

	if *probeOps > 0 {
		// Cache-tier inputs for the live probe: the raw config's smooth
		// PC/SC, with miss handling assumed 4x the cost of a hit (same
		// class of assumption as the relSpeed factors above).
		raw := configs["raw"]
		in := core.TieredInputs{
			PCCache: core.SmoothPC(w, core.StandardContainer, raw),
			SCCache: core.SmoothSC(w, core.StandardContainer, raw),
			PCMiss:  core.StandardContainer.Cost / (*refQPS / 4) * w.QPS,
		}
		p := liveProbe{
			keys: *probeKeys, ops: *probeOps, cacheRatio: *cacheRatio,
			dist: *probeDist,
		}
		if _, err := p.run(ds, in); err != nil {
			log.Fatalf("cost-advisor: live probe: %v", err)
		}
	}
}

// measureConfigs runs quick capability probes for the candidate
// configurations, normalized so the raw config hits refQPS per core.
func measureConfigs(ds workload.Dataset, refQPS float64) (map[string]core.Measured, error) {
	// Space capability from record-level overhead probes; performance
	// scaled against the raw configuration's relative throughput.
	type probe struct {
		name     string
		comp     string
		relSpeed float64 // rough relative QPS vs raw (measured in tab2-style probes)
		pmem     bool
	}
	probes := []probe{
		{name: "raw", relSpeed: 1.0},
		{name: "pmem", relSpeed: 0.85, pmem: true},
		{name: "zstd-d", comp: "zstd-d", relSpeed: 0.55},
		{name: "pbc", comp: "pbc", relSpeed: 0.6},
	}
	out := map[string]core.Measured{}
	samples := workload.Sample(ds, 400)
	for _, p := range probes {
		overhead, err := probeOverhead(p.comp, samples)
		if err != nil {
			return nil, err
		}
		memGB := 4.0 * 0.85 // standard container, usable fraction
		maxSpace := memGB / overhead
		if p.pmem {
			// PMem container: values (~85% of bytes) go to a 12 GB PMem
			// extension, keys/index stay in DRAM.
			maxSpace = (4.0 * 0.85) / (overhead * 0.15) * 0.15
			maxSpace += 12.0 * 0.85 / (overhead * 0.85) * 0.85
		}
		out[p.name] = core.Measured{
			Config:     p.name,
			MaxPerfQPS: refQPS * p.relSpeed,
			MaxSpaceGB: maxSpace,
		}
	}
	return out, nil
}

// probeOverhead measures physical-per-logical bytes for a compressor
// trained on the first half of samples and fed the second.
func probeOverhead(comp string, samples [][]byte) (float64, error) {
	half := len(samples) / 2
	st, err := stack.Open(stack.Config{Compression: comp, TrainingSamples: samples[:half]})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	// Physical bytes are what the cache engine accounts for the records
	// (16-byte keys), the same number INFO and the cache budget read.
	var logical int64
	for i, rec := range samples[half:] {
		logical += int64(len(rec)) + 16
		if err := st.Set(fmt.Sprintf("probe%011d", i), rec); err != nil {
			return 0, err
		}
	}
	return float64(st.Engine().MemUsed()) / float64(logical), nil
}

func configNames(m map[string]core.Measured) []core.Config {
	out := make([]core.Config, 0, len(m))
	for name := range m {
		out = append(out, core.Config{Name: name})
	}
	return out
}

func evaluator(m map[string]core.Measured) core.ConfigEvaluator {
	return core.ConfigEvaluatorFunc(func(cfg core.Config) (core.Measured, error) {
		meas, ok := m[cfg.Name]
		if !ok {
			return core.Measured{}, fmt.Errorf("unknown config %s", cfg.Name)
		}
		return meas, nil
	})
}
