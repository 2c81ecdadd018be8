// Case study 2 — Capital Reconciliation (paper §6.5, Case 2).
//
// A cost-sensitive 1:1 read/write workload with strong temporal locality:
// channels write transaction entries, the reconciliation system reads
// recent entries back for verification. The paper's choice: tiered storage
// with a small cache over the LSM storage tier (1% hot data in cache, ~80%
// hit rate; write-back mode for high-throughput sub-scenarios). This
// example runs the write-back tiered store, reports hit rate and dirty
// batching efficiency, and demonstrates durability across restarts.
//
// The embedded store keeps one copy of the cache tier, so dirty entries
// not yet flushed die with the process. A deployment that must protect
// them runs tierbase-server with -node-id on a master, -replicaof on a
// replica and -semisync-acks 1, so a write is acked only once a replica
// holds it.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tierbase"
	"tierbase/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "tierbase-recon")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := tierbase.Open(tierbase.Options{
		Policy:             tierbase.WriteBack,
		Dir:                filepath.Join(dir, "storage"),
		CacheCapacityBytes: 1 << 20, // small hot cache over a large ledger
	})
	if err != nil {
		log.Fatal(err)
	}

	ops := workload.Reconciliation(workload.ReconciliationOptions{Ops: 40000})
	var lastKey string
	for _, op := range ops {
		if op.Kind == workload.OpWrite {
			if err := store.Set(op.Key, op.Value); err != nil {
				log.Fatal(err)
			}
			lastKey = op.Key
		} else {
			store.Get(op.Key) // cold keys fall through to the storage tier
		}
	}
	st := store.Stats()
	fmt.Printf("trace: %d ops over %d ledger entries\n", len(ops), st.Keys)
	fmt.Printf("cache hit rate: %.1f%% (paper reports ~80%% with ~1%% hot data)\n", 100*(1-st.MissRatio))
	fmt.Printf("cache: %d B DRAM; storage tier: %d B on disk; dirty pending: %d\n",
		st.CacheMemBytes, st.StorageDiskBytes, st.DirtyEntries)

	if err := store.Close(); err != nil { // flushes all dirty entries
		log.Fatal(err)
	}

	// Durability check: reopen and verify the last written entry.
	store2, err := tierbase.Open(tierbase.Options{
		Policy: tierbase.WriteBack,
		Dir:    filepath.Join(dir, "storage"),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store2.Close()
	if v, err := store2.Get(lastKey); err != nil {
		log.Fatalf("ledger entry lost across restart: %v", err)
	} else {
		fmt.Printf("recovered %s after restart (%d B)\n", lastKey, len(v))
	}
}
