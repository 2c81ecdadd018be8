package main

// metricDef names one metric of the ledger. BENCHMARK.json lists the same
// names, units and directions; main_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening of the median that -compare calls a
	// regression; 0 for a metric that only informs.
	bound float64
}

// endToEnd are the metrics the driver holds to their bounds: reported on
// every workload, never zero, and repeating within the bound on the box the
// baseline was taken on. README.md ("Moved, and why") says why the timed
// metrics are not among them.
var endToEnd = []metricDef{
	{"dram_bytes_per_user_byte", "ratio", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is everything else. The first block is what a user of the
// deployment sees; its bounds are the ones -compare applies. After it the
// prefix is the package under internal/ (client, loadgen and trace are the
// benchmark's own). README.md gives each one's source and the user-facing
// metric it should move.
var perLayer = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.10},
	{"server_cpu_us_per_op", "us", "lower", 0.05},
	{"p50_us", "us", "lower", 0.10},
	{"p99_us", "us", "lower", 0.10},
	{"get_p50_us", "us", "lower", 0.10},
	{"get_p99_us", "us", "lower", 0.10},
	{"set_p50_us", "us", "lower", 0.10},
	{"set_p99_us", "us", "lower", 0.10},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.10},
	{"failed_ops_ratio", "ratio", "lower", 0},
	{"lost_acked_writes", "count", "lower", 0},

	{"client.request_p50_us", "us", "lower", 0},
	{"client.request_p99_us", "us", "lower", 0},
	{"client.overhead_us", "us", "lower", 0},
	{"client.allocs_per_op", "count", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"loadgen.box_speed", "ratio", "higher", 0},
	{"server.residence_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.bytes_in_per_op", "bytes", "lower", 0},
	{"server.bytes_out_per_op", "bytes", "lower", 0},
	{"server.rss_mb", "MB", "lower", 0},
	{"elastic.submit_wait_ns", "ns", "lower", 0},
	{"elastic.boosts", "count", "lower", 0},
	{"elastic.workers_max", "count", "lower", 0},
	{"elastic.backlog_max", "count", "lower", 0},
	{"engine.get_ns", "ns", "lower", 0},
	{"engine.set_ns", "ns", "lower", 0},
	{"engine.mem_bytes_per_key", "bytes", "lower", 0},
	{"compress.compress_ns", "ns", "lower", 0},
	{"compress.decompress_ns", "ns", "lower", 0},
	{"compress.calls_per_op", "count", "lower", 0},
	{"compress.ratio", "ratio", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.evictions_per_op", "count", "lower", 0},
	{"cache.shared_fetch_ratio", "ratio", "higher", 0},
	{"cache.miss_penalty_us", "us", "lower", 0},
	{"cache.storage_calls_per_op", "count", "lower", 0},
	{"cache.coalesced_ratio", "ratio", "higher", 0},
	{"cache.flush_batch_mean", "count", "higher", 0},
	{"cache.backpressure_waits", "count", "lower", 0},
	{"lsm.gets_per_op", "count", "lower", 0},
	{"lsm.get_p50_us", "us", "lower", 0},
	{"lsm.get_p99_us", "us", "lower", 0},
	{"lsm.put_p50_us", "us", "lower", 0},
	{"lsm.put_p99_us", "us", "lower", 0},
	{"lsm.batchput_p50_us", "us", "lower", 0},
	{"lsm.batchput_p99_us", "us", "lower", 0},
	{"lsm.block_cache_hit_ratio", "ratio", "higher", 0},
	{"lsm.flushes", "count", "lower", 0},
	{"lsm.compactions", "count", "lower", 0},
	{"lsm.l0_files_max", "count", "lower", 0},
	{"lsm.write_amp", "ratio", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.sync_us", "us", "lower", 0},
	{"wal.appends_per_op", "count", "lower", 0},
	{"wal.syncs_per_op", "count", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"replication.ack_rtt_us", "us", "lower", 0},
	{"replication.replica_apply_us", "us", "lower", 0},
	{"replication.frames_per_op", "count", "lower", 0},
	{"replication.link_bytes_per_op", "bytes", "lower", 0},
	{"replication.ack_lag_max", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// value is one measured metric. Samples is how many observations stand
// behind it (requests, calls, polls); 1 for a single reading.
type value struct {
	Value   float64
	Samples int64
}

// values collects measurements by metric name.
type values map[string]value

func (v values) set(name string, x float64, samples int64) {
	v[name] = value{Value: x, Samples: samples}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
