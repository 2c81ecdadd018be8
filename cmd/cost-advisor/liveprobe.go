package main

import (
	"fmt"
	"math/rand"
	"os"

	"tierbase/internal/cache"
	"tierbase/internal/core"
	"tierbase/internal/stack"
	"tierbase/internal/workload"
)

// liveProbe runs the described workload's key distribution through the
// stack tierbase-server runs (write-through over an LSM in a temporary
// directory) and reports the measured miss ratio — the §2 cost model
// evaluated on live numbers instead of an assumed MR.
type liveProbe struct {
	keys       int
	ops        int
	cacheRatio float64 // cache capacity as a fraction of resident data bytes
	dist       string  // zipfian | uniform | hotspot | hotspot-shift
}

// run builds the store, drives the workload, and prints the measurements.
// in carries the cost-model inputs derived from the synthetic probes so
// the measured MR prices directly against the analytic one. It returns
// the read-phase miss ratio.
func (p liveProbe) run(ds workload.Dataset, in core.TieredInputs) (float64, error) {
	key := func(i int64) string { return fmt.Sprintf("probe%08d", i) }

	// Size the cache off the real resident footprint: load everything
	// into an unbounded cache-only stack once to measure, then build the
	// bounded one at ratio x that.
	full, err := stack.Open(stack.Config{})
	if err != nil {
		return 0, err
	}
	for i := 0; i < p.keys; i++ {
		full.Set(key(int64(i)), ds.Record(int64(i)))
	}
	dataBytes := full.Engine().Stats().MemBytes
	full.Close()
	capBytes := int64(float64(dataBytes) * p.cacheRatio)
	if capBytes < 1 {
		capBytes = 1
	}

	dir, err := os.MkdirTemp("", "cost-advisor-probe")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t, err := stack.Open(stack.Config{Policy: cache.WriteThrough, Dir: dir, CacheBytes: capBytes})
	if err != nil {
		return 0, err
	}
	defer t.Close()
	for i := 0; i < p.keys; i++ {
		if err := t.Set(key(int64(i)), ds.Record(int64(i))); err != nil {
			return 0, err
		}
	}

	var chooser workload.KeyChooser
	n := int64(p.keys)
	switch p.dist {
	case "uniform":
		chooser = workload.NewUniform(n)
	case "hotspot":
		chooser = workload.NewHotspot(n, 0.1, 0.9)
	case "hotspot-shift":
		chooser = workload.NewShiftingHotspot(n, 0.1, 0.9, int64(p.ops/4+1))
	default:
		chooser = workload.NewScrambledZipfian(n, workload.ZipfianTheta)
	}

	rng := rand.New(rand.NewSource(42))
	before := t.Stats()
	for i := 0; i < p.ops; i++ {
		if _, err := t.Get(key(chooser.Next(rng))); err != nil && err != cache.ErrNotFound {
			return 0, err
		}
	}
	after := t.Stats()

	reads := float64(after.Hits - before.Hits + after.Misses - before.Misses)
	readMR := 0.0
	if reads > 0 {
		readMR = float64(after.Misses-before.Misses) / reads
	}
	fmt.Printf("\nlive cache-tier probe (in-process, write-through over an LSM):\n")
	fmt.Printf("  distribution=%s keys=%d ops=%d cache-ratio=%.2f capacity=%dB\n",
		p.dist, p.keys, p.ops, p.cacheRatio, capBytes)
	fmt.Printf("  measured MissRatio(): %.4f (lifetime)   read-phase MR: %.4f   evictions: %d\n",
		t.MissRatio(), readMR, after.Evictions)

	// Price the cache tier (Eq. 6) at the measured MR vs the analytic
	// zipf-MRC estimate at the same cache ratio — the gap is what assuming
	// a distribution (instead of measuring) would cost.
	analyticMR := core.ZipfMRC(n, workload.ZipfianTheta)(p.cacheRatio)
	fmt.Printf("  cache-tier cost (Eq. 6): %.3f at measured MR vs %.3f at analytic zipf MR %.4f\n",
		core.CacheTierCost(in, p.cacheRatio, readMR),
		core.CacheTierCost(in, p.cacheRatio, analyticMR), analyticMR)
	return readMR, nil
}
