package server

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"tierbase/internal/cache"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
)

// INFO is declared once. Each row of infoTable is a field: its section,
// its name, its scope, an optional guard and a getter that reads the
// render's snapshot. info is the one loop that writes the wire format:
// "# Section", then name:value lines, each ended by \r\n.
//
// The names treat the process's one node as shard 0 — shards:1;
// tiered_shards, storage_shards and degraded_shards count it (0 or 1); a
// shard0_ prefix on the fields of its gate, storage tier and health —
// because the ledger (benchmark/) parses those names.

type scope uint8

const (
	header     scope = iota // "# Section"; when its guard fails the whole section is left out
	global                  // name:value
	perReplica              // nameN:value for each attached replica, in id order
)

// infoRow is one field. get returns its value (for replica i) in the form
// %v writes; show, when set, leaves the row out unless it holds.
type infoRow struct {
	section, name string
	scope         scope
	show          func(sn *infoSnap) bool
	get           func(sn *infoSnap, i int) any
}

func (r *infoRow) on(sn *infoSnap) bool { return r.show == nil || r.show(sn) }

// infoSnap is what one render's rows read, taken once per render from the
// layers' own Stats/Health calls: a row never calls them itself.
type infoSnap struct {
	s       *Server
	eng     engine.Stats
	pool    elastic.Stats
	tiered  cache.Stats
	health  cache.HealthStats
	storage []lsm.Stats       // Config.StorageStats; the rows read element 0
	acked   map[string]uint64 // replica acks, read before seq
	ids     []string          // attached replicas, sorted
	seq     uint64            // the op-log head: no ack in acked is ahead of it
	replica bool              // the role, read once for its line and the replica-only rows
	conns   int
}

func (s *Server) infoSnapshot() *infoSnap {
	sn := &infoSnap{
		s:      s,
		eng:    s.eng.Stats(),
		pool:   s.pool.Stats(),
		tiered: s.tiered.Stats(),
		health: s.tiered.Health(),
	}
	if s.opts.StorageStats != nil {
		sn.storage = s.opts.StorageStats()
	}
	if s.repl != nil {
		sn.acked = s.repl.acks.Snapshot()
		sn.seq = s.repl.log.Seq()
		sn.replica = s.repl.isReplica()
		sn.ids = slices.Sorted(maps.Keys(sn.acked))
	}
	s.mu.Lock()
	sn.conns = len(s.conns)
	s.mu.Unlock()
	return sn
}

// The row guards: a replicated node; a replica; a node with a storage tier
// (writepath and tiering end after tiered_shards:0); one storage entry
// (storage ends after storage_shards:0).
func replicated(sn *infoSnap) bool  { return sn.s.repl != nil }
func replicaOnly(sn *infoSnap) bool { return sn.replica }
func tiered(sn *infoSnap) bool      { return sn.s.tiered.Policy() != cache.CacheOnly }
func stored(sn *infoSnap) bool      { return len(sn.storage) == 1 }

// infoTable is INFO, in order. Comments say what a value means where its
// name does not.
var infoTable = []infoRow{
	{"Server", "", header, nil, nil},
	{"Server", "shards", global, nil, func(sn *infoSnap, _ int) any { return 1 }},
	{"Server", "shard0_workers", global, nil, func(sn *infoSnap, _ int) any { return sn.pool.Workers }},
	{"Server", "shard0_max_workers", global, nil, func(sn *infoSnap, _ int) any { return sn.pool.MaxWorkers }},
	{"Server", "shard0_mode", global, nil, func(sn *infoSnap, _ int) any { return sn.s.pool.Mode() }}, // single|boost
	{"Server", "shard0_boosts", global, nil, func(sn *infoSnap, _ int) any { return sn.pool.Boosts }},
	{"Server", "shard0_shrinks", global, nil, func(sn *infoSnap, _ int) any { return sn.pool.Shrinks }},
	{"Server", "shard0_queue_depth", global, nil, func(sn *infoSnap, _ int) any { return sn.pool.Backlog }},
	{"Server", "shard0_tasks", global, nil, func(sn *infoSnap, _ int) any { return sn.pool.Executed }}, // the counter a rate derives from
	{"Server", "keys", global, nil, func(sn *infoSnap, _ int) any { return sn.eng.Keys }},
	// DRAM the engine's contents occupy: records at their slab slot, index
	// tables as allocated, collections; the number the cache budget and the
	// ledger read. It is payload + overhead.
	{"Server", "mem_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.eng.MemBytes }},
	{"Server", "mem_payload_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.eng.PayloadBytes }},                    // keys as stored (string keys packed) and stored values, after compression
	{"Server", "mem_overhead_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.eng.MemBytes - sn.eng.PayloadBytes }}, // record headers, index tables, slot rounding
	{"Server", "mem_index_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.eng.IndexBytes }},                        // the overhead's index tables, as allocated
	// Slab page bytes that hold no record: freed slots and each stripe's
	// uncarved tail. Beside mem_bytes, not in it; large after a population
	// shrank because pages are not compacted (internal/engine/README.md).
	{"Server", "mem_free_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.eng.FreeBytes }},
	{"Server", "p99_ns", global, nil, func(sn *infoSnap, _ int) any { return sn.s.Latency.P99() }},

	{"Replication", "", header, replicated, nil},
	{"Replication", "role", global, nil, func(sn *infoSnap, _ int) any { return [...]string{"master", "replica"}[boolToInt(sn.replica)] }},
	{"Replication", "node_id", global, nil, func(sn *infoSnap, _ int) any { return sn.s.repl.cfg.NodeID }},
	{"Replication", "repl_seq", global, nil, func(sn *infoSnap, _ int) any { return sn.seq }}, // the op-log head
	{"Replication", "repl_start_seq", global, nil, func(sn *infoSnap, _ int) any { return sn.s.repl.log.StartSeq() }},
	{"Replication", "semi_sync_acks", global, nil, func(sn *infoSnap, _ int) any { return sn.s.repl.cfg.SemiSyncAcks }},
	{"Replication", "master_addr", global, replicaOnly, func(sn *infoSnap, _ int) any { return sn.s.repl.currentMasterAddr() }},
	{"Replication", "master_link", global, replicaOnly, func(sn *infoSnap, _ int) any {
		return [...]string{"down", "up"}[boolToInt(sn.s.repl.masterLinkUp.Load())]
	}},
	{"Replication", "last_applied_seq", global, replicaOnly, func(sn *infoSnap, _ int) any { return sn.s.repl.lastApplied.Load() }},
	{"Replication", "connected_replicas", global, nil, func(sn *infoSnap, _ int) any { return len(sn.ids) }},
	{"Replication", "replica", perReplica, nil, func(sn *infoSnap, i int) any {
		acked := sn.acked[sn.ids[i]]
		return fmt.Sprintf("id=%s,acked_seq=%d,ack_lag=%d", sn.ids[i], acked, sn.seq-min(acked, sn.seq))
	}},
	{"Replication", "full_syncs_served", global, nil, func(sn *infoSnap, _ int) any { return sn.s.repl.fullSyncsServed.Load() }},
	{"Replication", "full_syncs_done", global, nil, func(sn *infoSnap, _ int) any { return sn.s.repl.fullSyncsDone.Load() }},
	{"Replication", "apply_errors", global, nil, func(sn *infoSnap, _ int) any { return sn.s.repl.applyErrors.Load() }},
	{"Replication", "laggards_shed", global, nil, func(sn *infoSnap, _ int) any { return sn.s.repl.laggardsShed.Load() }},    // sessions dropped for unacked backlog
	{"Replication", "max_write_stall_ns", global, nil, func(sn *infoSnap, _ int) any { return sn.s.repl.writeStall.Load() }}, // worst frame write + flush

	{"WritePath", "", header, nil, nil},
	{"WritePath", "tiered_shards", global, nil, func(sn *infoSnap, _ int) any { return boolToInt(tiered(sn)) }}, // shards whose policy is not cache-only
	{"WritePath", "flush_rounds", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.Batches }},
	{"WritePath", "flushed_entries", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.Flushed }},
	{"WritePath", "backpressure_waits", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.BackpressureWaits }}, // writers that found the dirty set at its budget
	{"WritePath", "dirty_entries", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.Dirty }},
	{"WritePath", "shard0_policy", global, tiered, func(sn *infoSnap, _ int) any { return sn.s.tiered.Policy() }},

	// lsm.Stats. Write amplification is (flush_bytes +
	// compaction_bytes) / write_bytes; the WAL writes write_bytes once more.
	{"Storage", "", header, nil, nil},
	{"Storage", "storage_shards", global, nil, func(sn *infoSnap, _ int) any { return len(sn.storage) }},
	{"Storage", "shard0_flushes", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].Flushes }},
	{"Storage", "shard0_compactions", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].Compactions }}, // moves included
	{"Storage", "shard0_immutables", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].Immutables }},   // memtables the flusher has not reached: growing = falling behind
	{"Storage", "shard0_memtable_bytes", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].MemtableBytes + sn.storage[0].ImmutableBytes }},
	{"Storage", "shard0_write_bytes", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].WriteBytes }}, // key and value bytes applied
	{"Storage", "shard0_multigets", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].MultiGets }},
	{"Storage", "shard0_bad_blocks", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].BadBlocks }},
	{"Storage", "shard0_disk_bytes", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].DiskBytes }},
	{"Storage", "shard0_level_files", global, stored, func(sn *infoSnap, _ int) any { return levels(sn.storage[0].LevelFiles) }},
	{"Storage", "shard0_level_bytes", global, stored, func(sn *infoSnap, _ int) any { return levels(sn.storage[0].LevelBytes) }},
	{"Storage", "shard0_moves", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].Moves }},                      // compactions that rewrote nothing: a table put one level down
	{"Storage", "shard0_flush_bytes", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].FlushBytes }},           // table bytes written by memtable flushes
	{"Storage", "shard0_compaction_bytes", global, stored, func(sn *infoSnap, _ int) any { return sn.storage[0].CompactionBytes }}, // table bytes written by merges

	{"Tiering", "", header, nil, nil},
	{"Tiering", "tiered_shards", global, nil, func(sn *infoSnap, _ int) any { return boolToInt(tiered(sn)) }},
	{"Tiering", "shard0_capacity_bytes", global, tiered, func(sn *infoSnap, _ int) any { return sn.s.tiered.CapacityBytes() }}, // the cache budget; 0 = unbounded
	{"Tiering", "shard0_resident_bytes", global, tiered, func(sn *infoSnap, _ int) any { return sn.eng.MemBytes }},             // what the budget holds
	{"Tiering", "shard0_requests", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.Requests }},
	{"Tiering", "shard0_hits", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.Hits }},
	{"Tiering", "shard0_misses", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.Misses }},
	{"Tiering", "shard0_evictions", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.Evictions }},
	{"Tiering", "shard0_shared_fetches", global, tiered, func(sn *infoSnap, _ int) any { return sn.tiered.Shared }}, // misses that found their key filled after waiting for its stripe
	{"Tiering", "shard0_miss_ratio", global, tiered, func(sn *infoSnap, _ int) any { // misses over lookups; writes do not dilute it
		return strconv.FormatFloat(float64(sn.tiered.Misses)/float64(max(sn.tiered.Hits+sn.tiered.Misses, 1)), 'f', 4, 64)
	}},

	{"Health", "", header, nil, nil},
	{"Health", "degraded_shards", global, nil, func(sn *infoSnap, _ int) any { return boolToInt(sn.health.Degraded) }},
	{"Health", "storage_errors", global, nil, func(sn *infoSnap, _ int) any { return sn.health.StorageErrors }},
	{"Health", "degraded_ops", global, nil, func(sn *infoSnap, _ int) any { return sn.health.DegradedOps }},
	{"Health", "degraded_transitions", global, nil, func(sn *infoSnap, _ int) any { return sn.health.DegradedTransit }},
	{"Health", "shard0_consecutive_fails", global, nil, func(sn *infoSnap, _ int) any { return sn.health.ConsecutiveFails }},

	{"Overload", "", header, nil, nil},
	{"Overload", "connected_clients", global, nil, func(sn *infoSnap, _ int) any { return sn.conns }},
	{"Overload", "max_conns", global, nil, func(sn *infoSnap, _ int) any { return sn.s.opts.Overload.MaxConns }},
	{"Overload", "maxconn_rejects", global, nil, func(sn *infoSnap, _ int) any { return sn.s.over.maxConnRejects.Load() }},
	{"Overload", "shed_conns", global, nil, func(sn *infoSnap, _ int) any { return sn.s.over.shedConns.Load() }},
	{"Overload", "idle_closes", global, nil, func(sn *infoSnap, _ int) any { return sn.s.over.idleCloses.Load() }},
	{"Overload", "slowest_client_buffer_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.s.over.slowestOut.Load() }},
	{"Overload", "overloaded", global, nil, func(sn *infoSnap, _ int) any { return boolToInt(sn.s.over.overloaded.Load()) }},
	{"Overload", "mem_usage_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.s.over.memUsage.Load() }}, // the tracked total the watermarks act on
	{"Overload", "high_watermark_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.s.opts.Overload.HighWatermarkBytes }},
	{"Overload", "low_watermark_bytes", global, nil, func(sn *infoSnap, _ int) any { return sn.s.opts.Overload.LowWatermarkBytes }},
	{"Overload", "rejected_writes", global, nil, func(sn *infoSnap, _ int) any { return sn.s.over.rejectedWrites.Load() }},
	{"Overload", "watermark_trips", global, nil, func(sn *infoSnap, _ int) any { return sn.s.over.watermarkTrips.Load() }},
}

// info renders INFO: every section, or the one section (lower case) names.
// It is the render loop, and the one place INFO's wire format is written.
func (s *Server) info(section string) string {
	sn := s.infoSnapshot()
	var b []byte
	line := func(name string, v any) { b = fmt.Appendf(b, "%s:%v\r\n", name, v) }
	for k := 0; k < len(infoTable); k++ {
		r := &infoTable[k]
		switch {
		case section != "" && section != strings.ToLower(r.section):
		case r.scope == header && !r.on(sn):
			for k+1 < len(infoTable) && infoTable[k+1].section == r.section {
				k++
			}
		case !r.on(sn):
		case r.scope == header:
			b = append(b, "# "+r.section+"\r\n"...)
		case r.scope == global:
			line(r.name, r.get(sn, 0))
		case r.scope == perReplica:
			for i := range sn.ids {
				line(r.name+strconv.Itoa(i), r.get(sn, i))
			}
		}
	}
	return string(b)
}

// levels writes a per-level vector as INFO storage does: 4,1,0.
func levels[T int | int64](xs []T) string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(xs), "[]"), " ", ",")
}

func boolToInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
