package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracedDurations splits the traced run's time between the pass with the
// wrappers on and the pass of the same shape with them off.
func tracedDurations(seconds float64) (traced, untraced time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return total * 4 / 10, total * 15 / 100
}

// tracedSegments is how many segments the traced pass is cut into.
const tracedSegments = 4

// shares is the share table of one workload: for the requests around the
// p50 and the p99 of client.request, the mean share of each layer.
type shares struct {
	Op      string               `json:"op"`
	Percent map[string][]float64 `json:"percent"` // layer -> [at p50, at p99]
}

// runTraced replays the workload against a stack built in this process,
// one connection at depth 1, and fills in the per-layer metrics that need
// spans, in-process Stats() or direct probes.
func (e *env) runTraced(s spec, seed int64, seconds float64, res *result) (*shares, error) {
	rec := newRecorder()
	dir, err := e.tempDir(s.name + "-traced")
	if err != nil {
		return nil, err
	}
	master, err := buildNode(s, dir, "m", "", rec)
	if err != nil {
		return nil, err
	}
	nodes := []*stackNode{master}
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	ctl, err := dial(master.srv.Addr())
	if err != nil {
		return nil, err
	}
	defer ctl.close()
	var rctl *client
	if s.replicated {
		rdir, err := e.tempDir(s.name + "-traced-replica")
		if err != nil {
			return nil, err
		}
		replica, err := buildNode(s, rdir, "r", master.srv.Addr(), rec)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, replica)
		if rctl, err = dial(replica.srv.Addr()); err != nil {
			return nil, err
		}
		defer rctl.close()
		if err := waitLinked(ctl, rctl); err != nil {
			return nil, err
		}
	}
	load, err := dial(master.srv.Addr())
	if err != nil {
		return nil, err
	}
	defer load.close()
	rec.register(load.nc.LocalAddr(), connClient)

	if err := load.prefill(s, 0, 1); err != nil {
		return nil, err
	}
	if err := quiesce(ctl, rctl); err != nil {
		return nil, err
	}
	stream := newOpStream(s, seed, 0, 1)
	if s.warmup > 0 {
		load.run(stream, nil, phase{dur: s.warmup, window: 1})
	}

	// The traced pass runs in segments with slices of the untraced pass
	// between them, so that drift in the stack's state (memtable fill, cache
	// contents) and in the box weighs on both alike. Counters are deltas over
	// the segments alone, never over prefill.
	tracedDur, untracedDur := tracedDurations(seconds)
	var kinds []uint8 // op kind per traced request, in send order
	var open int32
	hooks := phase{dur: tracedDur / tracedSegments, window: 1,
		onSend: func(o op) {
			kinds = append(kinds, o.kind)
			open = rec.begin(spClientRequest, noSpan)
		},
		onReply: func() { rec.end(open) },
	}
	gap := phase{dur: untracedDur / (tracedSegments + 1), window: 1}
	cache0, lsm0 := master.tiered.Stats(), master.db.Stats()
	syncs0 := master.wlog.Syncs()
	var written int64 // SETs sent while tracing
	rec.reset()
	plain, traced := load.run(stream, nil, gap), &phaseResult{}
	for i := 0; i < tracedSegments; i++ {
		before := sum(stream.ver)
		rec.on.Store(true)
		traced.add(load.run(stream, nil, hooks))
		rec.on.Store(false)
		written += sum(stream.ver) - before
		plain.add(load.run(stream, nil, gap))
	}
	res.mergeTraced(plain)
	res.mergeTraced(traced)
	cache1, lsm1 := master.tiered.Stats(), master.db.Stats()
	syncs1 := master.wlog.Syncs()
	rec.mu.Lock()
	spans := rec.spans
	spans[0].end = rec.now()
	rec.mu.Unlock()

	out := filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(out, "trace-"+s.name+".json"), spans); err != nil {
		return nil, err
	}

	v := res.vals
	a := analyze(spans, kinds)
	ops := float64(len(a.reqs))
	n := int64(len(a.reqs))
	if a.escaped > 0 {
		res.note("trace: %d child spans end after their parent", a.escaped)
	}
	v.set("client.request_p50_us", a.pct(func(r *reqAgg) int64 { return r.total }, 50), n)
	v.set("client.request_p99_us", a.pct(func(r *reqAgg) int64 { return r.total }, 99), n)
	v.set("client.overhead_us", a.pct(func(r *reqAgg) int64 { return r.total - r.residence }, 50), n)
	v.set("server.residence_us", a.pct(func(r *reqAgg) int64 { return r.residence }, 50), n)
	v.set("server.self_us", a.pct(func(r *reqAgg) int64 { return r.layer[1] }, 50), n)
	v.set("server.bytes_in_per_op", ratio(float64(rec.clientBytesIn.Load()), ops), n)
	v.set("server.bytes_out_per_op", ratio(float64(rec.clientBytesOut.Load()), ops), n)
	for name, metric := range map[spanName]string{
		spCompress: "compress.compress_ns", spDecompress: "compress.decompress_ns",
		spWALAppend: "wal.append_us", spWALSync: "wal.sync_us",
		spReplAckRTT: "replication.ack_rtt_us", spReplApply: "replication.replica_apply_us",
	} {
		unit := 1e3
		if name == spCompress || name == spDecompress {
			unit = 1
		}
		v.set(metric, percentile(a.dur[name], 50)/unit, int64(len(a.dur[name])))
	}
	for name, metric := range map[spanName]string{spLSMGet: "lsm.get", spLSMPut: "lsm.put", spLSMBatchPut: "lsm.batchput"} {
		v.set(metric+"_p50_us", percentile(a.self[name], 50)/1e3, int64(len(a.self[name])))
		v.set(metric+"_p99_us", percentile(a.self[name], 99)/1e3, int64(len(a.self[name])))
	}
	calls := func(names ...spanName) (c float64) {
		for _, name := range names {
			c += float64(len(a.dur[name]))
		}
		return c
	}
	v.set("compress.calls_per_op", ratio(calls(spCompress, spDecompress), ops), n)
	v.set("compress.ratio", ratio(float64(rec.compressOut.Load()), float64(rec.compressIn.Load())), int64(calls(spCompress)))
	v.set("lsm.gets_per_op", ratio(calls(spLSMGet), ops), n)
	v.set("cache.storage_calls_per_op", ratio(calls(spLSMGet, spLSMPut, spLSMBatchPut, spLSMOther), ops), n)
	v.set("cache.miss_penalty_us", a.missPenalty(), n)
	v.set("wal.appends_per_op", ratio(calls(spWALAppend), ops), n)
	v.set("wal.syncs_per_op", ratio(float64(syncs1-syncs0), ops), n)
	writtenBytes := float64(written) * float64(s.userBytes()) / float64(s.keys)
	v.set("wal.bytes_per_user_byte", ratio(float64(rec.walBytes.Load()), writtenBytes), int64(calls(spWALAppend)))
	v.set("replication.frames_per_op", ratio(float64(rec.linkFrames.Load()), ops), n)
	v.set("replication.link_bytes_per_op", ratio(float64(rec.linkBytes.Load()), ops), n)

	// Counters only the in-process handles expose, over the traced pass.
	reqs := float64(cache1.Requests - cache0.Requests)
	v.set("cache.hit_ratio", ratio(float64(cache1.Hits-cache0.Hits), reqs), int64(reqs))
	v.set("cache.evictions_per_op", ratio(float64(cache1.Evictions-cache0.Evictions), ops), n)
	v.set("cache.shared_fetch_ratio", ratio(float64(cache1.Shared-cache0.Shared), float64(cache1.Misses-cache0.Misses)), cache1.Misses-cache0.Misses)
	blockReads := float64(lsm1.CacheHits - lsm0.CacheHits + lsm1.CacheMisses - lsm0.CacheMisses)
	v.set("lsm.block_cache_hit_ratio", ratio(float64(lsm1.CacheHits-lsm0.CacheHits), blockReads), int64(blockReads))

	// Tracing overhead: median request latency, wrappers on over wrappers off.
	v.set("trace.overhead_ratio", ratio(medianLatency(traced), medianLatency(plain)), int64(len(plain.samples)))

	probe(master, stream, v)
	return a.shares(s), nil
}

func sum(xs []uint32) (n int64) {
	for _, x := range xs {
		n += int64(x)
	}
	return n
}

// mergeTraced counts the traced run's failures as the run's own; its
// attempts are not added, so failed/attempted stays the end-to-end ratio.
func (r *result) mergeTraced(p *phaseResult) {
	r.failed += p.failed
	for _, e := range p.errs {
		r.note("traced run: %s", e)
	}
}

func medianLatency(p *phaseResult) float64 {
	lat := make([]float64, len(p.samples))
	for i, sm := range p.samples {
		lat[i] = float64(sm.lat)
	}
	return median(lat)
}

// reqAgg is one traced request: its total time, its server residence, and
// the self time of its spans by share-table layer.
type reqAgg struct {
	kind      uint8
	total     int64
	residence int64
	layer     [len(shareLayers)]int64
	lsmGet    bool
}

type analysis struct {
	reqs    []reqAgg
	dur     [len(spanNames)][]float64 // sorted durations by span name, ns, background included
	self    [len(spanNames)][]float64 // sorted self times
	escaped int                       // children that end after their parent
}

// analyze folds the spans into per-request aggregates and per-name samples.
func analyze(spans []span, kinds []uint8) *analysis {
	a := &analysis{}
	self := selfTimes(spans)
	req := make([]int32, len(spans)) // request ordinal of each span, -1 for background
	for i, s := range spans {
		switch {
		case s.end < s.start: // still open when the pass ended
			req[i] = -1
			continue
		case s.name == spClientRequest:
			req[i] = int32(len(a.reqs))
			a.reqs = append(a.reqs, reqAgg{kind: kinds[len(a.reqs)], total: s.end - s.start})
		case s.parent <= 0:
			req[i] = -1
		default:
			req[i] = req[s.parent]
			if s.end > spans[s.parent].end {
				a.escaped++
			}
		}
		if s.name != spBackground {
			a.dur[s.name] = append(a.dur[s.name], float64(s.end-s.start))
			a.self[s.name] = append(a.self[s.name], float64(self[i]))
		}
		if req[i] < 0 {
			continue
		}
		r := &a.reqs[req[i]]
		r.layer[spanLayer[s.name]] += self[i]
		switch s.name {
		case spServerResidence:
			r.residence += s.end - s.start
		case spLSMGet:
			r.lsmGet = true
		}
	}
	for i := range a.dur {
		sort.Float64s(a.dur[i])
		sort.Float64s(a.self[i])
	}
	return a
}

// pct is the p-th percentile, in microseconds, of f over the requests.
func (a *analysis) pct(f func(*reqAgg) int64, p float64) float64 {
	xs := make([]float64, len(a.reqs))
	for i := range a.reqs {
		xs[i] = float64(f(&a.reqs[i]))
	}
	sort.Float64s(xs)
	return percentile(xs, p) / 1e3
}

// missPenalty is the median server residence of GETs that went to storage
// minus that of GETs that did not; 0 when either kind is absent.
func (a *analysis) missPenalty() float64 {
	var hit, miss []float64
	for _, r := range a.reqs {
		if r.kind != opGet {
			continue
		}
		if r.lsmGet {
			miss = append(miss, float64(r.residence))
		} else {
			hit = append(hit, float64(r.residence))
		}
	}
	if len(hit) == 0 || len(miss) == 0 {
		return 0
	}
	return (median(miss) - median(hit)) / 1e3
}

// shares builds the share table for the workload's dominant op: over the
// requests within half a percentile rank of the p50 (and of the p99) of
// client.request, each layer's summed self time over their summed total.
// Every span's self time is charged to exactly one layer, so a row sums to
// 100 % unless sibling spans overlapped.
func (a *analysis) shares(s spec) *shares {
	kind, opName := opGet, "GET"
	if s.readPct <= 50 {
		kind, opName = opSet, "SET"
	}
	var rs []reqAgg
	for _, r := range a.reqs {
		if r.kind == kind {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].total < rs[j].total })
	sh := &shares{Op: opName, Percent: map[string][]float64{}}
	for _, p := range []float64{50, 99} {
		lo := int(float64(len(rs)) * (p - 0.5) / 100)
		hi := min(len(rs), int(float64(len(rs))*(p+0.5)/100)+1)
		var total float64
		var layer [len(shareLayers)]float64
		for _, r := range rs[lo:hi] {
			total += float64(r.total)
			for i, t := range r.layer {
				layer[i] += float64(t)
			}
		}
		for i, name := range shareLayers {
			sh.Percent[name] = append(sh.Percent[name], 100*ratio(layer[i], total))
		}
	}
	return sh
}

// probe times direct calls of single layers' public functions on the
// populated stack, after the traced pass.
func probe(n *stackNode, stream *opStream, v values) {
	const calls = 20000
	pool := n.srv.Pools()[0]
	lat := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		t := time.Now()
		if pool.SubmitWait(func() {}) != nil {
			break
		}
		lat = append(lat, float64(time.Since(t)))
	}
	v.set("elastic.submit_wait_ns", median(lat), int64(len(lat)))

	// engine.Get/Set over the workload's own key and value stream. Sets go
	// straight to the engine, below the tiered store: the stack is thrown
	// away after this.
	eng := n.srv.Shards()[0]
	var getLat, setLat []float64
	var key, val []byte
	for i := 0; i < calls; i++ {
		o := stream.next()
		key = appendKey(key[:0], o.key)
		t := time.Now()
		if _, err := eng.Get(string(key)); err == nil {
			getLat = append(getLat, float64(time.Since(t)))
		}
		val = stream.spec.appendValue(val[:0], o.key, o.ver)
		t = time.Now()
		if eng.Set(string(key), val) == nil {
			setLat = append(setLat, float64(time.Since(t)))
		}
	}
	v.set("engine.get_ns", median(getLat), int64(len(getLat)))
	v.set("engine.set_ns", median(setLat), int64(len(setLat)))
}

func (sh *shares) String() string {
	out := fmt.Sprintf("%-16s %8s %8s\n", sh.Op+" share of", "p50 %", "p99 %")
	var sum [2]float64
	for _, name := range shareLayers {
		p := sh.Percent[name]
		out += fmt.Sprintf("%-16s %8.1f %8.1f\n", name, p[0], p[1])
		sum[0], sum[1] = sum[0]+p[0], sum[1]+p[1]
	}
	return out + fmt.Sprintf("%-16s %8.1f %8.1f\n", "sum", sum[0], sum[1])
}
