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

type scope uint8

const (
	header     scope = iota // "# Section"; when its guard fails the whole section is left out
	global                  // name:value
	perShard                // shardN_name:value for each shard; a run of per-shard rows renders shard by shard
	summed                  // name:value, the int64 values of the shards summed
	perReplica              // nameN:value for each attached replica, in id order
)

// infoRow is one field. get returns its value for shard (or replica) i in
// the form %v writes; show, when set, leaves the row out unless it holds.
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
	eng     []engine.Stats
	pool    []elastic.Stats
	tiered  []cache.Stats
	health  []cache.HealthStats
	storage []lsm.Stats
	acked   map[string]uint64 // replica acks, read before seq
	ids     []string          // attached replicas, sorted
	seq     uint64            // the op-log head: no ack in acked is ahead of it
	replica bool              // the role, read once for its line and the replica-only rows
	conns   int
}

func (s *Server) infoSnapshot() *infoSnap {
	sn := &infoSnap{s: s}
	for _, sh := range s.shards {
		sn.eng = append(sn.eng, sh.eng.Stats())
		sn.pool = append(sn.pool, sh.pool.Stats())
		sn.tiered = append(sn.tiered, sh.tiered.Stats())
		sn.health = append(sn.health, sh.tiered.Health())
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

// The row guards: a replicated node; a replica; a shard with a storage tier
// (writepath and tiering end after tiered_shards:0); one storage entry per
// shard (storage ends after storage_shards:0).
func replicated(sn *infoSnap) bool  { return sn.s.repl != nil }
func replicaOnly(sn *infoSnap) bool { return sn.replica }
func tiered(sn *infoSnap) bool      { return slices.ContainsFunc(sn.s.shards, hasTier) }
func stored(sn *infoSnap) bool      { return len(sn.storage) == len(sn.s.shards) }

func hasTier(sh *shard) bool { return sh.tiered.Policy() != cache.CacheOnly }

// infoTable is INFO, in order. Comments say what a value means where its
// name does not.
var infoTable = []infoRow{
	{"Server", "", header, nil, nil},
	{"Server", "shards", global, nil, func(sn *infoSnap, _ int) any { return len(sn.s.shards) }},
	{"Server", "workers", perShard, nil, func(sn *infoSnap, i int) any { return sn.pool[i].Workers }},
	{"Server", "max_workers", perShard, nil, func(sn *infoSnap, i int) any { return sn.pool[i].MaxWorkers }},
	{"Server", "mode", perShard, nil, func(sn *infoSnap, i int) any { return sn.s.shards[i].pool.Mode() }}, // single|boost
	{"Server", "boosts", perShard, nil, func(sn *infoSnap, i int) any { return sn.pool[i].Boosts }},
	{"Server", "shrinks", perShard, nil, func(sn *infoSnap, i int) any { return sn.pool[i].Shrinks }},
	{"Server", "queue_depth", perShard, nil, func(sn *infoSnap, i int) any { return sn.pool[i].Backlog }},
	{"Server", "tasks", perShard, nil, func(sn *infoSnap, i int) any { return sn.pool[i].Executed }}, // the counter a rate derives from
	{"Server", "keys", summed, nil, func(sn *infoSnap, i int) any { return int64(sn.eng[i].Keys) }},
	// DRAM the engines' contents occupy: records at their slab slot, index
	// tables as allocated, collections; the number the cache budget and the
	// ledger read. It is payload + overhead.
	{"Server", "mem_bytes", summed, nil, func(sn *infoSnap, i int) any { return sn.eng[i].MemBytes }},
	{"Server", "mem_payload_bytes", summed, nil, func(sn *infoSnap, i int) any { return sn.eng[i].PayloadBytes }},                       // keys and stored values, after compression
	{"Server", "mem_overhead_bytes", summed, nil, func(sn *infoSnap, i int) any { return sn.eng[i].MemBytes - sn.eng[i].PayloadBytes }}, // record headers, index tables, slot rounding
	{"Server", "mem_index_bytes", summed, nil, func(sn *infoSnap, i int) any { return sn.eng[i].IndexBytes }},                           // the overhead's index tables, as allocated
	// Slab page bytes that hold no record: freed slots and each stripe's
	// uncarved tail. Beside mem_bytes, not in it; large after a population
	// shrank because pages are not compacted (internal/engine/README.md).
	{"Server", "mem_free_bytes", summed, nil, func(sn *infoSnap, i int) any { return sn.eng[i].FreeBytes }},
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
	{"WritePath", "tiered_shards", summed, nil, func(sn *infoSnap, i int) any { return boolToInt(hasTier(sn.s.shards[i])) }}, // shards whose policy is not cache-only
	{"WritePath", "flush_rounds", summed, tiered, func(sn *infoSnap, i int) any { return sn.tiered[i].Batches }},
	{"WritePath", "flushed_entries", summed, tiered, func(sn *infoSnap, i int) any { return sn.tiered[i].Flushed }},
	{"WritePath", "backpressure_waits", summed, tiered, func(sn *infoSnap, i int) any { return sn.tiered[i].BackpressureWaits }}, // writers that found the dirty set at MaxDirty
	{"WritePath", "dirty_entries", summed, tiered, func(sn *infoSnap, i int) any { return int64(sn.tiered[i].Dirty) }},
	{"WritePath", "policy", perShard, tiered, func(sn *infoSnap, i int) any { return sn.s.shards[i].tiered.Policy() }},

	// lsm.Stats per shard. Write amplification is (flush_bytes +
	// compaction_bytes) / write_bytes; the WAL writes write_bytes once more.
	{"Storage", "", header, nil, nil},
	{"Storage", "storage_shards", global, nil, func(sn *infoSnap, _ int) any { return len(sn.storage) }},
	{"Storage", "flushes", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].Flushes }},
	{"Storage", "compactions", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].Compactions }}, // moves included
	{"Storage", "immutables", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].Immutables }},   // memtables the flusher has not reached: growing = falling behind
	{"Storage", "memtable_bytes", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].MemtableBytes + sn.storage[i].ImmutableBytes }},
	{"Storage", "write_bytes", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].WriteBytes }}, // key and value bytes applied
	{"Storage", "multigets", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].MultiGets }},
	{"Storage", "bad_blocks", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].BadBlocks }},
	{"Storage", "disk_bytes", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].DiskBytes }},
	{"Storage", "level_files", perShard, stored, func(sn *infoSnap, i int) any { return levels(sn.storage[i].LevelFiles) }},
	{"Storage", "level_bytes", perShard, stored, func(sn *infoSnap, i int) any { return levels(sn.storage[i].LevelBytes) }},
	{"Storage", "moves", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].Moves }},                      // compactions that rewrote nothing: a table put one level down
	{"Storage", "flush_bytes", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].FlushBytes }},           // table bytes written by memtable flushes
	{"Storage", "compaction_bytes", perShard, stored, func(sn *infoSnap, i int) any { return sn.storage[i].CompactionBytes }}, // table bytes written by merges

	{"Tiering", "", header, nil, nil},
	{"Tiering", "tiered_shards", summed, nil, func(sn *infoSnap, i int) any { return boolToInt(hasTier(sn.s.shards[i])) }},
	{"Tiering", "capacity_bytes", perShard, tiered, func(sn *infoSnap, i int) any { return sn.s.shards[i].tiered.CapacityBytes() }}, // the cache budget; 0 = unbounded
	{"Tiering", "resident_bytes", perShard, tiered, func(sn *infoSnap, i int) any { return sn.eng[i].MemBytes }},                    // what the budget holds
	{"Tiering", "requests", perShard, tiered, func(sn *infoSnap, i int) any { return sn.tiered[i].Requests }},
	{"Tiering", "hits", perShard, tiered, func(sn *infoSnap, i int) any { return sn.tiered[i].Hits }},
	{"Tiering", "misses", perShard, tiered, func(sn *infoSnap, i int) any { return sn.tiered[i].Misses }},
	{"Tiering", "evictions", perShard, tiered, func(sn *infoSnap, i int) any { return sn.tiered[i].Evictions }},
	{"Tiering", "shared_fetches", perShard, tiered, func(sn *infoSnap, i int) any { return sn.tiered[i].Shared }}, // misses that rode another caller's fetch
	{"Tiering", "miss_ratio", perShard, tiered, func(sn *infoSnap, i int) any {
		return strconv.FormatFloat(float64(sn.tiered[i].Misses)/float64(max(sn.tiered[i].Requests, 1)), 'f', 4, 64)
	}},

	{"Health", "", header, nil, nil},
	{"Health", "degraded_shards", summed, nil, func(sn *infoSnap, i int) any { return boolToInt(sn.health[i].Degraded) }},
	{"Health", "storage_errors", summed, nil, func(sn *infoSnap, i int) any { return sn.health[i].StorageErrors }},
	{"Health", "storage_retries", summed, nil, func(sn *infoSnap, i int) any { return sn.health[i].StorageRetries }},
	{"Health", "degraded_ops", summed, nil, func(sn *infoSnap, i int) any { return sn.health[i].DegradedOps }},
	{"Health", "degraded_transitions", summed, nil, func(sn *infoSnap, i int) any { return sn.health[i].DegradedTransit }},
	{"Health", "degraded", perShard, nil, func(sn *infoSnap, i int) any { return sn.health[i].Degraded }},
	{"Health", "storage_errors", perShard, nil, func(sn *infoSnap, i int) any { return sn.health[i].StorageErrors }},
	{"Health", "consecutive_fails", perShard, nil, func(sn *infoSnap, i int) any { return sn.health[i].ConsecutiveFails }},

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
		case r.scope == summed:
			var sum int64
			for i := range s.shards {
				sum += r.get(sn, i).(int64)
			}
			line(r.name, sum)
		case r.scope == perReplica:
			for i := range sn.ids {
				line(r.name+strconv.Itoa(i), r.get(sn, i))
			}
		case r.scope == perShard:
			run := k + 1
			for run < len(infoTable) && infoTable[run].scope == perShard {
				run++
			}
			for i := range s.shards {
				for _, r := range infoTable[k:run] {
					if r.on(sn) {
						line("shard"+strconv.Itoa(i)+"_"+r.name, r.get(sn, i))
					}
				}
			}
			k = run - 1
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
