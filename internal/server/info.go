package server

import (
	"fmt"
	"strconv"
	"strings"

	"tierbase/internal/cache"
)

// info renders INFO output. section filters to one section ("server",
// "writepath", "storage", "tiering", "health", "overload"); empty
// renders everything.
func (s *Server) info(section string) string {
	var b strings.Builder
	if section == "" || section == "server" {
		fmt.Fprintf(&b, "# Server\r\nshards:%d\r\n", len(s.shards))
		var keys int
		var mem, payload, index, free int64
		for i, sh := range s.shards {
			st := sh.eng.Stats()
			keys += st.Keys
			mem += st.MemBytes
			payload += st.PayloadBytes
			index += st.IndexBytes
			free += st.FreeBytes
			ps := sh.pool.Stats()
			fmt.Fprintf(&b, "shard%d_workers:%d\r\n", i, ps.Workers)
			fmt.Fprintf(&b, "shard%d_max_workers:%d\r\n", i, ps.MaxWorkers)
			fmt.Fprintf(&b, "shard%d_mode:%s\r\n", i, sh.pool.Mode())
			fmt.Fprintf(&b, "shard%d_boosts:%d\r\n", i, ps.Boosts)
			fmt.Fprintf(&b, "shard%d_shrinks:%d\r\n", i, ps.Shrinks)
			fmt.Fprintf(&b, "shard%d_queue_depth:%d\r\n", i, ps.Backlog)
			fmt.Fprintf(&b, "shard%d_tasks:%d\r\n", i, ps.Executed)
		}
		fmt.Fprintf(&b, "keys:%d\r\nmem_bytes:%d\r\n", keys, mem)
		fmt.Fprintf(&b, "mem_payload_bytes:%d\r\nmem_overhead_bytes:%d\r\n", payload, mem-payload)
		fmt.Fprintf(&b, "mem_index_bytes:%d\r\n", index)
		fmt.Fprintf(&b, "mem_free_bytes:%d\r\n", free)
		fmt.Fprintf(&b, "p99_ns:%d\r\n", s.Latency.P99())
	}
	if (section == "" || section == "replication") && s.repl != nil {
		s.repl.info(&b)
	}
	if section == "" || section == "writepath" {
		s.writePathInfo(&b)
	}
	if section == "" || section == "storage" {
		s.storageInfo(&b)
	}
	if section == "" || section == "tiering" {
		s.tieringInfo(&b)
	}
	if section == "" || section == "health" {
		s.healthInfo(&b)
	}
	if section == "" || section == "overload" {
		s.overloadInfo(&b)
	}
	return b.String()
}

// healthInfo renders the storage-tier health section: aggregate
// error/retry/degraded counters across shards plus the per-shard
// degraded flags — the first place to look when a chaos drill (or a
// real disk) starts failing storage calls.
func (s *Server) healthInfo(b *strings.Builder) {
	fmt.Fprintf(b, "# Health\r\n")
	var degraded int
	var errs, retries, degOps, transitions int64
	stats := make([]cache.HealthStats, len(s.shards))
	for i, sh := range s.shards {
		st := sh.tiered.Health()
		stats[i] = st
		if st.Degraded {
			degraded++
		}
		errs += st.StorageErrors
		retries += st.StorageRetries
		degOps += st.DegradedOps
		transitions += st.DegradedTransit
	}
	fmt.Fprintf(b, "degraded_shards:%d\r\n", degraded)
	fmt.Fprintf(b, "storage_errors:%d\r\n", errs)
	fmt.Fprintf(b, "storage_retries:%d\r\n", retries)
	fmt.Fprintf(b, "degraded_ops:%d\r\n", degOps)
	fmt.Fprintf(b, "degraded_transitions:%d\r\n", transitions)
	for i, st := range stats {
		fmt.Fprintf(b, "shard%d_degraded:%t\r\n", i, st.Degraded)
		fmt.Fprintf(b, "shard%d_storage_errors:%d\r\n", i, st.StorageErrors)
		fmt.Fprintf(b, "shard%d_consecutive_fails:%d\r\n", i, st.ConsecutiveFails)
	}
}

// tieringInfo renders the cache-tiering section: per shard, the cache
// budget, what is resident against it, and the cache tier's request, hit,
// miss, eviction and shared-fetch counters.
func (s *Server) tieringInfo(b *strings.Builder) {
	fmt.Fprintf(b, "# Tiering\r\n")
	tiered := s.tieredShards()
	fmt.Fprintf(b, "tiered_shards:%d\r\n", tiered)
	if tiered == 0 {
		return
	}
	for i, sh := range s.shards {
		st := sh.tiered.Stats()
		fmt.Fprintf(b, "shard%d_capacity_bytes:%d\r\n", i, sh.tiered.CapacityBytes())
		fmt.Fprintf(b, "shard%d_resident_bytes:%d\r\n", i, sh.eng.MemUsed())
		fmt.Fprintf(b, "shard%d_requests:%d\r\n", i, st.Requests)
		fmt.Fprintf(b, "shard%d_hits:%d\r\n", i, st.Hits)
		fmt.Fprintf(b, "shard%d_misses:%d\r\n", i, st.Misses)
		fmt.Fprintf(b, "shard%d_evictions:%d\r\n", i, st.Evictions)
		fmt.Fprintf(b, "shard%d_shared_fetches:%d\r\n", i, st.Shared)
		fmt.Fprintf(b, "shard%d_miss_ratio:%.4f\r\n", i, sh.tiered.MissRatio())
	}
}

// tieredShards counts the shards that have a storage tier behind the
// cache (policy other than cache-only) — INFO's tiered_shards.
func (s *Server) tieredShards() int {
	n := 0
	for _, sh := range s.shards {
		if sh.tiered.Policy() != cache.CacheOnly {
			n++
		}
	}
	return n
}

func boolToInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// storageInfo renders the storage-tier section: per-shard LSM counters —
// flush/compaction activity, the immutable-memtable backlog (a growing
// number means the background flusher is falling behind writers), level
// shape and write volume, and what the tier wrote to hold it: write
// amplification is (flush_bytes + compaction_bytes) / write_bytes.
func (s *Server) storageInfo(b *strings.Builder) {
	fmt.Fprintf(b, "# Storage\r\n")
	if s.opts.StorageStats == nil {
		fmt.Fprintf(b, "storage_shards:0\r\n")
		return
	}
	stats := s.opts.StorageStats()
	fmt.Fprintf(b, "storage_shards:%d\r\n", len(stats))
	for i, st := range stats {
		fmt.Fprintf(b, "shard%d_flushes:%d\r\n", i, st.Flushes)
		fmt.Fprintf(b, "shard%d_compactions:%d\r\n", i, st.Compactions)
		fmt.Fprintf(b, "shard%d_immutables:%d\r\n", i, st.Immutables)
		fmt.Fprintf(b, "shard%d_memtable_bytes:%d\r\n", i, st.MemtableBytes+st.ImmutableBytes)
		fmt.Fprintf(b, "shard%d_write_bytes:%d\r\n", i, st.WriteBytes)
		fmt.Fprintf(b, "shard%d_multigets:%d\r\n", i, st.MultiGets)
		fmt.Fprintf(b, "shard%d_bad_blocks:%d\r\n", i, st.BadBlocks)
		fmt.Fprintf(b, "shard%d_disk_bytes:%d\r\n", i, st.DiskBytes)
		files := make([]string, len(st.LevelFiles))
		for l, n := range st.LevelFiles {
			files[l] = strconv.Itoa(n)
		}
		fmt.Fprintf(b, "shard%d_level_files:%s\r\n", i, strings.Join(files, ","))
		bytesParts := make([]string, len(st.LevelBytes))
		for l, n := range st.LevelBytes {
			bytesParts[l] = strconv.FormatInt(n, 10)
		}
		fmt.Fprintf(b, "shard%d_level_bytes:%s\r\n", i, strings.Join(bytesParts, ","))
		fmt.Fprintf(b, "shard%d_moves:%d\r\n", i, st.Moves)
		fmt.Fprintf(b, "shard%d_flush_bytes:%d\r\n", i, st.FlushBytes)
		fmt.Fprintf(b, "shard%d_compaction_bytes:%d\r\n", i, st.CompactionBytes)
	}
}

// writePathInfo renders the write-path section: the write-back
// flush/backpressure counters summed over the shards, and each shard's
// policy.
func (s *Server) writePathInfo(b *strings.Builder) {
	fmt.Fprintf(b, "# WritePath\r\n")
	tiered := s.tieredShards()
	fmt.Fprintf(b, "tiered_shards:%d\r\n", tiered)
	if tiered == 0 {
		return // cache-only deployment: no write path to report
	}
	var rounds, flushed, waits int64
	var dirty int
	for _, sh := range s.shards {
		st := sh.tiered.Stats()
		rounds += st.Batches
		flushed += st.Flushed
		waits += st.BackpressureWaits
		dirty += st.Dirty
	}
	fmt.Fprintf(b, "flush_rounds:%d\r\n", rounds)
	fmt.Fprintf(b, "flushed_entries:%d\r\n", flushed)
	fmt.Fprintf(b, "backpressure_waits:%d\r\n", waits)
	fmt.Fprintf(b, "dirty_entries:%d\r\n", dirty)
	for i, sh := range s.shards {
		fmt.Fprintf(b, "shard%d_policy:%s\r\n", i, sh.tiered.Policy())
	}
}
