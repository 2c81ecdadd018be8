// Case study 1 — User Info Service (paper §6.5, Case 1).
//
// A read-heavy (32:1) profile service over JSON-shaped user records. The
// paper's production decision for this workload: a single-layer cache with
// pre-trained PBC compression (25% value size, 50% cost cut). This example
// reproduces that flow: train PBC on sampled records, serve a skewed
// read-heavy workload, and report the observed compression ratio and
// hit/space statistics.
package main

import (
	"fmt"
	"log"

	"tierbase"
	"tierbase/internal/workload"
)

func main() {
	ds := workload.NewKV1() // machine-generated user-profile records

	// Offline pre-training phase (§4.2): sample production records.
	samples := workload.Sample(ds, 500)

	store, err := tierbase.Open(tierbase.Options{
		Compression:     "pbc",
		TrainingSamples: samples,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// Baseline without compression, for the before/after comparison.
	raw, err := tierbase.Open(tierbase.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer raw.Close()

	// Replay a synthetic trace with the published shape (32:1 reads,
	// zipfian hot users).
	ops := workload.UserInfo(workload.UserInfoOptions{Ops: 60000})
	// Seed both stores with the user population, then serve.
	for _, op := range workload.Preload(ops, ds) {
		store.Set(op.Key, op.Value)
		raw.Set(op.Key, op.Value)
	}
	for _, s := range []*tierbase.Store{store, raw} {
		for _, op := range ops {
			if op.Kind == workload.OpWrite {
				s.Set(op.Key, op.Value)
			} else {
				s.Get(op.Key)
			}
		}
	}

	cs, rs := store.Stats(), raw.Stats()
	fmt.Printf("users: %d, trace: %d ops\n", cs.Keys, len(ops))
	fmt.Printf("raw cache:   %8d B\n", rs.CacheMemBytes)
	fmt.Printf("pbc cache:   %8d B (%.1f%% of raw)\n",
		cs.CacheMemBytes, 100*float64(cs.CacheMemBytes)/float64(rs.CacheMemBytes))
	fmt.Printf("value compression ratio: %.3f (compressed/raw)\n", cs.CompressionRatio)

	// The space saving halves SC; the cost model tells us whether the
	// CPU overhead was worth it (space-critical workload: yes).
	st := workload.Summarize(ops)
	fmt.Printf("trace: %d reads / %d writes (%.0f:1), mean access interval %.0f ops\n",
		st.Reads, st.Writes, float64(st.Reads)/float64(st.Writes), st.MeanAccessInterval)
}
