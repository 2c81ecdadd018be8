// Cost-model walkthrough: applying the Space-Performance Cost Model
// (paper §2 and §5) to configuration decisions — single-tier optimal
// config (Theorem 2.1), tiered cache sizing (Theorem 5.1) from an
// empirical miss-ratio curve, and the adapted Five-Minute Rule (Eq. 5).
package main

import (
	"fmt"
	"math/rand"

	"tierbase"
	"tierbase/internal/workload"
)

func main() {
	// A space-critical workload: modest QPS, large data.
	w := tierbase.CostWorkload{
		Name: "profile-service", QPS: 80_000, DataSizeGB: 10,
		ReadRatio: 0.95, AvgRecordBytes: 190,
	}

	// Measured per-container capabilities for candidate configurations
	// (normally produced by the §5.3 replay harness; see cmd/tierbase-bench).
	configs := []tierbase.CostMeasured{
		{Config: "raw", MaxPerfQPS: 100_000, MaxSpaceGB: 2.6},
		{Config: "pmem", MaxPerfQPS: 85_000, MaxSpaceGB: 6.5},
		{Config: "zstd-dict", MaxPerfQPS: 55_000, MaxSpaceGB: 4.8},
		{Config: "pbc", MaxPerfQPS: 60_000, MaxSpaceGB: 7.8},
	}

	fmt.Println("-- Theorem 2.1: optimal single-tier configuration --")
	for _, m := range configs {
		pc := w.QPS / m.MaxPerfQPS * tierbase.StandardContainer.Cost
		sc := w.DataSizeGB / m.MaxSpaceGB * tierbase.StandardContainer.Cost
		fmt.Printf("  %-10s PC=%6.2f SC=%6.2f C=%6.2f\n", m.Config, pc, sc, max(pc, sc))
	}
	best, err := tierbase.OptimalConfig(w, tierbase.StandardContainer, configs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  optimal: %s (cost %.2f) — note PC≈SC at the optimum\n\n", best.Measured.Config, best.Cost)

	// Tiered sizing: build an empirical MRC from a skewed key trace and
	// solve for the optimal cache ratio.
	fmt.Println("-- Theorem 5.1: optimal cache ratio from an empirical MRC --")
	rng := rand.New(rand.NewSource(7))
	z := workload.NewScrambledZipfian(5_000, 0.99)
	keys := make([]string, 60_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%06d", z.Next(rng))
	}
	mrc := tierbase.BuildMRC(keys)
	in := tierbase.TieredCostInputs{
		PCCache: 0.8,  // serving all requests from cache
		PCMiss:  2.0,  // extra cost of the miss path at MR=1
		SCCache: 12.0, // storing ALL data in DRAM
	}
	cr, mr, cost := tierbase.OptimalCacheRatio(in, mrc)
	fmt.Printf("  CR* = %.3f (cache 1/%.1f of data), MR* = %.3f, cache-tier cost %.2f\n",
		cr, 1/cr, mr, cost)
	fmt.Printf("  full tiered cost at CR*: %.2f\n\n",
		tierbase.TieredCost(in, cr, mr))

	// Five-minute rule, adapted (Eq. 5).
	fmt.Println("-- Adapted Five-Minute Rule (Eq. 5) --")
	cpqpsSlow := 1.0 / 60_000.0 // PBC config: cost per query/s
	cpgbFast := 1.0 / 2.6       // raw config: cost per GB
	be := tierbase.BreakEvenInterval(cpqpsSlow, cpgbFast, w.AvgRecordBytes)
	fmt.Printf("  raw vs pbc break-even: %.0f s\n", be)
	fmt.Printf("  a record accessed every %0.f+ s belongs in the compressed tier\n", be)
}
