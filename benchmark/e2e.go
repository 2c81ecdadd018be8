package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// result is what one run of one workload measured.
type result struct {
	attempted int64
	failed    int64
	lost      int64 // acked writes missing after restart / on the replica
	vals      values
	errs      []string
}

func (r *result) correct() bool { return r.failed == 0 && r.lost == 0 && len(r.errs) == 0 }

func (r *result) note(format string, a ...any) {
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

// phaseDurations splits the run's measuring time evenly: a closed loop for
// throughput and CPU, then a paced one for latency.
func phaseDurations(seconds float64) (closed, paced time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return total / 2, total - total/2
}

// pacedWindows is how many consecutive windows the paced phase is cut into;
// reported percentiles are the median of the per-window percentiles.
const pacedWindows = 5

// deployment is the live server processes of one workload and the
// connections to them.
type deployment struct {
	spec    spec
	master  *node
	replica *node // nil unless spec.replicated
	dirs    []string
	load    [loadConns]*client
	ctl     *client // INFO polling on the master
	rctl    *client // same on the replica
}

func (d *deployment) nodes() []*node {
	if d.replica != nil {
		return []*node{d.master, d.replica}
	}
	return []*node{d.master}
}

func (d *deployment) closeConns() {
	for _, c := range d.load {
		if c != nil {
			c.close()
		}
	}
	if d.ctl != nil {
		d.ctl.close()
	}
	if d.rctl != nil {
		d.rctl.close()
	}
}

// setupRuns is how many times a run sets the deployment up.
const setupRuns = 3

// discard throws a deployment away: kills its servers, removes their data.
func (d *deployment) discard() {
	d.closeConns()
	for _, n := range d.nodes() {
		n.kill()
	}
	for _, dir := range d.dirs {
		os.RemoveAll(dir)
	}
}

// deploy starts the workload's server processes on fresh directories,
// prefills every key at version 0, waits for the storage tier to come to
// rest and runs the warm-up. Its wall time is setup_s.
func (e *env) deploy(d *deployment, streams []*opStream) error {
	s := d.spec
	dir, err := e.tempDir(s.name)
	if err != nil {
		return err
	}
	d.dirs = append(d.dirs, dir)
	if d.master, err = e.start(s.serverArgs(dir, "m", "")); err != nil {
		return err
	}
	if s.replicated {
		rdir, err := e.tempDir(s.name + "-replica")
		if err != nil {
			return err
		}
		d.dirs = append(d.dirs, rdir)
		if d.replica, err = e.start(s.serverArgs(rdir, "r", d.master.addr)); err != nil {
			return err
		}
		if d.rctl, err = dial(d.replica.addr); err != nil {
			return err
		}
	}
	if d.ctl, err = dial(d.master.addr); err != nil {
		return err
	}
	if s.replicated {
		if err := waitLinked(d.ctl, d.rctl); err != nil {
			return fmt.Errorf("%w\n%s", err, d.replica.stderrTail())
		}
	}
	errs := make(chan error, loadConns)
	for i := range d.load {
		if d.load[i], err = dial(d.master.addr); err != nil {
			return err
		}
		go func() { errs <- d.load[i].prefill(s, i, loadConns) }()
	}
	for range d.load {
		if perr := <-errs; perr != nil {
			err = perr
		}
	}
	if err != nil {
		return err
	}
	if err := quiesce(d.ctl, d.rctl); err != nil {
		return err
	}
	if s.warmup > 0 {
		d.run(streams, nil, phase{dur: s.warmup, window: closedWindow})
	}
	return nil
}

// waitLinked waits until the replica reports its master link up and the
// master counts one connected replica.
func waitLinked(ctl, rctl *client) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mi, err := ctl.info("replication")
		if err != nil {
			return err
		}
		ri, err := rctl.info("replication")
		if err != nil {
			return err
		}
		if ri["master_link"] == "up" && mi["connected_replicas"] == "1" {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("replica not linked within 10 s")
}

// run drives one phase on every load connection at once.
func (d *deployment) run(streams []*opStream, arr []*arrivals, ph phase) []*phaseResult {
	out := make([]*phaseResult, len(d.load))
	var wg sync.WaitGroup
	for i, c := range d.load {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a *arrivals
			if arr != nil {
				a = arr[i]
			}
			out[i] = c.run(streams[i], a, ph)
		}()
	}
	wg.Wait()
	return out
}

// cpu sums the CPU time of every server process.
func (d *deployment) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, n := range d.nodes() {
		t, err := cpuTime(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// counters is the INFO state the per-layer "stats" metrics are deltas of.
type counters map[string]int64

// counters reads the master's INFO sections into one flat map.
func (d *deployment) counters() (counters, error) {
	out := counters{}
	for _, section := range []string{"server", "writepath", "storage"} {
		m, err := d.ctl.info(section)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = atoi(v)
		}
	}
	return out, nil
}

// gauges are the maxima of values polled every 100 ms during the timed
// phases.
type gauges struct {
	workersMax, backlogMax, l0Max, ackLagMax int64
	polls                                    int64
}

// poll samples INFO on its own connection until stop is closed.
func (d *deployment) poll(stop <-chan struct{}, g *gauges, done chan<- error) {
	c, err := dial(d.master.addr)
	if err != nil {
		done <- err
		return
	}
	defer c.close()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			done <- nil
			return
		case <-tick.C:
		}
		srv, err := c.info("server")
		if err != nil {
			done <- err
			return
		}
		st, err := c.info("storage")
		if err != nil {
			done <- err
			return
		}
		g.polls++
		g.workersMax = max(g.workersMax, atoi(srv["shard0_workers"]))
		g.backlogMax = max(g.backlogMax, atoi(srv["shard0_queue_depth"]))
		l0, _, _ := strings.Cut(st["shard0_level_files"], ",")
		g.l0Max = max(g.l0Max, atoi(l0))
		if d.spec.replicated {
			ri, err := c.info("replication")
			if err != nil {
				done <- err
				return
			}
			if _, lag, ok := strings.Cut(ri["replica0"], "ack_lag="); ok {
				g.ackLagMax = max(g.ackLagMax, atoi(lag))
			}
		}
	}
}

// runEndToEnd measures one workload against live server processes with
// tracing off: the end-to-end metrics, and the per-layer metrics that come
// from INFO, /proc and the load generator itself.
func (e *env) runEndToEnd(s spec, seed int64, seconds float64) (*result, error) {
	res := &result{vals: values{}}
	streams := make([]*opStream, loadConns)
	arr := make([]*arrivals, loadConns)
	for i := range streams {
		streams[i] = newOpStream(s, seed, i, loadConns)
		arr[i] = newArrivals(seed, i, float64(s.rate)/loadConns)
	}
	userBytes := float64(s.userBytes())

	// Set-up runs setupRuns times and setup_s is the median: most of it is
	// disk writes, whose speed on a shared box jumps from one to the next.
	// The last deployment is the one measured.
	var d *deployment
	defer func() { d.closeConns() }()
	setups := make([]float64, setupRuns)
	for i := range setups {
		if d != nil {
			d.discard()
		}
		start := time.Now()
		d = &deployment{spec: s}
		if err := e.deploy(d, streams); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	res.vals.set("setup_s", median(setups), setupRuns)

	before, err := d.counters()
	if err != nil {
		return nil, err
	}
	var g gauges
	stopPoll, pollDone := make(chan struct{}), make(chan error, 1)
	go d.poll(stopPoll, &g, pollDone)

	closedDur, pacedDur := phaseDurations(seconds)
	err = d.closedPhase(streams, closedDur, res)
	if err == nil {
		d.pacedPhase(streams, arr, pacedDur, res)
	}
	close(stopPoll)
	if perr := <-pollDone; perr != nil && err == nil {
		err = fmt.Errorf("INFO poll: %w", perr)
	}
	if err != nil {
		return nil, err
	}

	// Space: DRAM as the engines account it at the end of the paced phase,
	// disk once the storage tier is at rest again. Both summed over nodes.
	var mem, keys int64
	for _, c := range []*client{d.ctl, d.rctl} {
		if c == nil {
			continue
		}
		srv, err := c.info("server")
		if err != nil {
			return nil, err
		}
		mem += atoi(srv["mem_bytes"])
		keys += atoi(srv["keys"])
	}
	res.vals.set("dram_bytes_per_user_byte", ratio(float64(mem), userBytes), 1)
	res.vals.set("engine.mem_bytes_per_key", ratio(float64(mem), float64(keys)), keys)
	if err := quiesce(d.ctl, d.rctl); err != nil {
		return nil, err
	}
	var disk int64
	for _, dir := range d.dirs {
		n, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		disk += n
	}
	res.vals.set("disk_bytes_per_user_byte", ratio(float64(disk), userBytes), 1)

	// Per-layer numbers INFO exposes, as deltas over the timed phases.
	after, err := d.counters()
	if err != nil {
		return nil, err
	}
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	var sets float64
	for _, st := range streams {
		for _, v := range st.ver {
			sets += float64(v)
		}
	}
	writtenBytes := sets * userBytes / float64(s.keys)
	res.vals.set("elastic.boosts", delta("shard0_boosts"), g.polls)
	res.vals.set("elastic.workers_max", float64(g.workersMax), g.polls)
	res.vals.set("elastic.backlog_max", float64(g.backlogMax), g.polls)
	res.vals.set("cache.coalesced_ratio", ratio(delta("coalesced_writes"), sets), int64(sets))
	res.vals.set("cache.flush_batch_mean", ratio(delta("flushed_entries"), delta("flush_rounds")), int64(delta("flush_rounds")))
	res.vals.set("cache.backpressure_waits", delta("backpressure_waits"), int64(sets))
	res.vals.set("lsm.flushes", delta("shard0_flushes"), 1)
	res.vals.set("lsm.compactions", delta("shard0_compactions"), 1)
	res.vals.set("lsm.l0_files_max", float64(g.l0Max), g.polls)
	res.vals.set("lsm.write_amp", ratio(delta("shard0_write_bytes"), writtenBytes), int64(sets))
	res.vals.set("replication.ack_lag_max", float64(g.ackLagMax), g.polls)
	rss, err := peakRSS(d.master.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.vals.set("server.rss_mb", float64(rss)/(1<<20), 1)

	if err := e.verifyDurable(d, streams, seed, res); err != nil {
		return nil, err
	}
	d.closeConns()
	for _, n := range d.nodes() {
		if err := n.stop(); err != nil {
			return nil, err
		}
	}
	res.vals.set("failed_ops_ratio", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	res.vals.set("lost_acked_writes", float64(res.lost), checkKeys)
	return res, nil
}

// closedPhase measures throughput, server CPU per op and the generator's
// allocations. It runs in slices with a box-speed reading before and after
// each: the box's CPU speed drifts by tens of percent over a run, and
// throughput and CPU time are reported at the reference speed (see boxSpeed).
func (d *deployment) closedPhase(streams []*opStream, dur time.Duration, res *result) error {
	slice := phase{dur: dur / closedSlices, window: closedWindow}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var rates, speeds []float64
	var ok int64
	var cpuAtRef float64 // server CPU microseconds, scaled to the reference speed
	speed := boxSpeed()
	for i := 0; i < closedSlices; i++ {
		cpu0, err := d.cpu()
		if err != nil {
			return err
		}
		rs := d.run(streams, nil, slice)
		cpu1, err := d.cpu()
		if err != nil {
			return err
		}
		before := speed
		speed = boxSpeed()
		during := (before + speed) / 2
		speeds = append(speeds, during)
		cpuAtRef += float64((cpu1 - cpu0).Microseconds()) * during
		for _, r := range rs {
			res.merge(r)
			ok += int64(len(r.samples))
		}
		for _, rate := range bucketRates(rs, slice.dur) {
			rates = append(rates, rate/during)
		}
	}
	runtime.ReadMemStats(&ms1)
	res.vals.set("throughput_ops_s", median(rates), int64(len(rates)))
	res.vals.set("server_cpu_us_per_op", ratio(cpuAtRef, float64(ok)), ok)
	res.vals.set("client.allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(ok)), ok)
	res.vals.set("loadgen.box_speed", median(speeds), closedSlices)
	return nil
}

// pacedPhase measures latency from due time at the workload's fixed rate.
func (d *deployment) pacedPhase(streams []*opStream, arr []*arrivals, dur time.Duration, res *result) {
	var at, lat [3][]float64 // all, GET, SET
	var late []float64
	for _, r := range d.run(streams, arr, phase{dur: dur, paced: true, window: pacedWindow}) {
		res.merge(r)
		for _, sm := range r.samples {
			for _, i := range []int{0, 1 + int(sm.kind)} {
				at[i] = append(at[i], float64(sm.due))
				lat[i] = append(lat[i], float64(sm.lat)/1e3)
			}
		}
		for _, l := range r.late {
			late = append(late, float64(l)/1e3)
		}
	}
	for i, prefix := range []string{"", "get_", "set_"} {
		n := int64(len(lat[i]))
		res.vals.set(prefix+"p50_us", medianOfWindows(at[i], lat[i], float64(dur), pacedWindows, 50), n)
		res.vals.set(prefix+"p99_us", medianOfWindows(at[i], lat[i], float64(dur), pacedWindows, 99), n)
	}
	sort.Float64s(late)
	res.vals.set("loadgen.late_p99_us", percentile(late, 99), int64(len(late)))
}

func (r *result) merge(p *phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, e := range p.errs {
		r.note("%s", e)
	}
}

// closedSlices is how many slices the closed phase is cut into.
const closedSlices = 4

// bucketRates returns the completion rates of the half-second buckets of one
// closed slice, the first dropped: connections ramp up in it.
func bucketRates(rs []*phaseResult, dur time.Duration) []float64 {
	n := max(2, int(dur/(500*time.Millisecond)))
	width := dur / time.Duration(n)
	counts := make([]float64, n)
	for _, r := range rs {
		for _, sm := range r.samples {
			if b := int((sm.due + sm.lat) / width); b < n {
				counts[b]++
			}
		}
	}
	rates := counts[1:]
	for i := range rates {
		rates[i] /= width.Seconds()
	}
	return rates
}

// refSpeed is what boxSpeed's loop reached on the box the baseline was
// taken on, in records per second over both cores.
const refSpeed = 18e6

// boxSpeed reads how fast the box runs a fixed CPU-bound loop right now, as
// a fraction of refSpeed. The sandbox is a microVM on a shared host whose
// CPU speed, as any pure-CPU loop sees it, drifts by tens of percent over
// minutes; server throughput and CPU time per op follow it. Dividing by the
// reading taken around each slice removes about half of the run-to-run
// spread of both. loadgen.box_speed reports the median reading, so the raw
// numbers can be had back.
func boxSpeed() float64 {
	const dur = 200 * time.Millisecond
	var wg sync.WaitGroup
	var done [2]int64
	for g := range done {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			var n int64 // local: done's elements share a cache line
			for start := time.Now(); time.Since(start) < dur; {
				for i := 0; i < 100; i++ {
					buf = appendKV1(buf[:0], n)
					n++
				}
			}
			done[g] = n
		}()
	}
	wg.Wait()
	return float64(done[0]+done[1]) / dur.Seconds() / refSpeed
}

// checkKeys is how many seeded keys the durability check reads back.
const checkKeys = 2000

// verifyDurable reads checkKeys seeded keys back from where an acknowledged
// write must have reached: the replica, for a replicated workload; the
// master restarted on the same directory after SIGTERM, for a restartCheck
// workload. Each must hold the last version this run was acked for.
func (e *env) verifyDurable(d *deployment, streams []*opStream, seed int64, res *result) error {
	s := d.spec
	var target *client
	switch {
	case s.replicated:
		target = d.rctl
	case s.restartCheck:
		d.closeConns()
		if err := d.master.stop(); err != nil {
			return err
		}
		var err error
		if d.master, err = e.start(d.master.args); err != nil {
			return fmt.Errorf("restart on %s: %w", filepath.Base(d.dirs[0]), err)
		}
		if target, err = dial(d.master.addr); err != nil {
			return err
		}
		defer target.close()
	default:
		return nil
	}
	rng := rand.New(rand.NewSource(seed*1_000_037 + 3))
	var key, want []byte
	for i := 0; i < checkKeys; i++ {
		k := uint32(rng.Intn(s.keys))
		ver := streams[k%loadConns].version(k)
		key = appendKey(key[:0], k)
		got, err := target.do("GET", string(key))
		if err != nil {
			return fmt.Errorf("durability check: %w", err)
		}
		if !s.checkValue(k, ver, []byte(got), &want) {
			res.lost++
			res.note("durability: key %d: want version %d, got %s", k, ver, s.describeValue([]byte(got)))
		}
	}
	return nil
}
