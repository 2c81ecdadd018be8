// Command tierbase-bench regenerates the paper's evaluation tables and
// figures (§6). Each experiment prints the same rows/series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured record.
//
// With -addr it instead becomes a networked load generator: it drives a
// live tierbase-server over RESP through the multiplexed client and
// reports throughput plus latency percentiles, so client-tier wins are
// measurable outside `go test -bench`.
//
// Usage:
//
//	tierbase-bench -list
//	tierbase-bench -experiment fig10
//	tierbase-bench -experiment all -scale 2.0
//	tierbase-bench -addr 127.0.0.1:6380 -clients 64 -conns 1 -ops 200000
//	tierbase-bench -coordinator 127.0.0.1:7000 -clients 32 -ops 200000
//	tierbase-bench -addr 127.0.0.1:6380 -chaos slow-replica -chaos-listen 127.0.0.1:7381
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/bench"
	"tierbase/internal/client"
	"tierbase/internal/faults"
	"tierbase/internal/metrics"
	"tierbase/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig1, fig7..fig13b, tab2, tab3) or 'all'")
		scale      = flag.Float64("scale", 1.0, "workload scale multiplier")
		dir        = flag.String("dir", "", "scratch directory (default: temp)")
		list       = flag.Bool("list", false, "list experiments and exit")

		// Networked-mode flags (active when -addr or -coordinator is set).
		addr     = flag.String("addr", "", "drive a live RESP server at this address instead of running experiments")
		coord    = flag.String("coordinator", "", "drive a live cluster via this coordinator's routing table (slot-aware, survives failover)")
		clients  = flag.Int("clients", 64, "networked: concurrent caller goroutines")
		conns    = flag.Int("conns", 1, "networked: multiplexed connections shared round-robin by the callers")
		ops      = flag.Int("ops", 100000, "networked: total operations")
		readPct  = flag.Int("readpct", 90, "networked: percentage of reads (rest are writes)")
		keyspace = flag.Int("keyspace", 10000, "networked: distinct keys (prefilled)")
		valSize  = flag.Int("valsize", 64, "networked: value size in bytes")
		dist     = flag.String("workload", "uniform", "networked: key distribution: uniform | zipf | hotspot-shift")
		shiftOps = flag.Int("shift-every", 0, "networked: hotspot-shift rotates the hot set every this many ops per client (0 = keyspace)")

		chaos       = flag.String("chaos", "", "replication chaos drill against -addr: slow-replica | partition")
		chaosListen = flag.String("chaos-listen", "127.0.0.1:0", "chaos: listen address for the replication-link relay the replica must connect through")

		overload = flag.String("overload", "", "overload drill against -addr: conn-storm | slow-reader | write-flood")
	)
	flag.Parse()

	if *overload != "" {
		if *addr == "" {
			log.Fatal("tierbase-bench: -overload requires -addr")
		}
		if err := runOverloadBench(overloadOpts{
			mode: *overload, addr: *addr,
			ops: *ops, valSize: *valSize, clients: *clients,
		}); err != nil {
			log.Fatalf("tierbase-bench: %v", err)
		}
		return
	}

	if *chaos != "" {
		if *addr == "" {
			log.Fatal("tierbase-bench: -chaos requires -addr (the master)")
		}
		if err := runChaosBench(chaosOpts{
			mode: *chaos, masterAddr: *addr, listen: *chaosListen,
			ops: *ops, valSize: *valSize,
		}); err != nil {
			log.Fatalf("tierbase-bench: %v", err)
		}
		return
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *addr != "" || *coord != "" {
		if err := runNetBench(netOpts{
			addr: *addr, coordinator: *coord, clients: *clients, conns: *conns, ops: *ops,
			readPct: *readPct, keyspace: *keyspace, valSize: *valSize,
			workload: *dist, shiftEvery: *shiftOps,
		}); err != nil {
			log.Fatalf("tierbase-bench: %v", err)
		}
		return
	}

	scratch := *dir
	if scratch == "" {
		var err error
		scratch, err = os.MkdirTemp("", "tierbase-bench")
		if err != nil {
			log.Fatalf("tierbase-bench: %v", err)
		}
		defer os.RemoveAll(scratch)
	}
	opts := bench.RunOpts{Scale: *scale, Dir: scratch}

	run := func(e bench.Experiment) {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			log.Printf("%s: FAILED: %v", e.ID, err)
			return
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, e := range bench.Registry() {
			run(e)
		}
		return
	}
	e, ok := bench.ByID(*experiment)
	if !ok {
		log.Fatalf("tierbase-bench: unknown experiment %q (use -list)", *experiment)
	}
	run(e)
}

// --- networked load mode ---

type netOpts struct {
	addr        string
	coordinator string
	clients     int
	conns       int
	ops         int
	readPct     int
	keyspace    int
	valSize     int
	workload    string // uniform | zipf | hotspot-shift
	shiftEvery  int
}

// newChooser builds one goroutine's key chooser for the selected
// distribution (the workload generators are single-threaded; each client
// goroutine owns one).
func (o netOpts) newChooser() (workload.KeyChooser, error) {
	n := int64(o.keyspace)
	switch o.workload {
	case "", "uniform":
		return workload.NewUniform(n), nil
	case "zipf":
		return workload.NewScrambledZipfian(n, workload.ZipfianTheta), nil
	case "hotspot-shift":
		shift := int64(o.shiftEvery)
		if shift <= 0 {
			shift = n
		}
		return workload.NewShiftingHotspot(n, 0.1, 0.9, shift), nil
	default:
		return nil, fmt.Errorf("unknown -workload %q (uniform | zipf | hotspot-shift)", o.workload)
	}
}

// kvCaller is the per-op surface both networked backends share: the
// single-node mux client and the slot-routed cluster client.
type kvCaller interface {
	Set(key, val string) error
	Get(key string) (string, error)
	MSet(pairs map[string]string) error
}

// runNetBench drives a live deployment: N caller goroutines share M
// multiplexed connections round-robin (single-node mode) or one
// slot-routed cluster client (-coordinator mode); every per-op latency
// lands in one metrics histogram.
//
// In cluster mode failed ops are expected during a failover blackout —
// the run keeps going, counts them, and reports the longest contiguous
// unavailability window (first failed op to next successful op) instead
// of aborting, so a master kill under live traffic yields a blackout
// measurement rather than a dead bench.
func runNetBench(o netOpts) error {
	if o.clients < 1 || o.conns < 1 || o.ops < 1 || o.keyspace < 1 {
		return fmt.Errorf("clients, conns, ops and keyspace must be positive")
	}
	if o.addr != "" && o.coordinator != "" {
		return fmt.Errorf("-addr and -coordinator are mutually exclusive")
	}
	if _, err := o.newChooser(); err != nil {
		return err // validate the distribution before dialing anything
	}

	var muxes []*client.Client // single-node mode only
	var callers []kvCaller     // indexed by goroutine % len
	if o.coordinator != "" {
		rc, err := client.NewCluster(o.coordinator)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		defer rc.Close()
		callers = []kvCaller{rc}
		fmt.Printf("cluster bench: coordinator=%s clients=%d ops=%d read%%=%d keyspace=%d valsize=%d\n",
			o.coordinator, o.clients, o.ops, o.readPct, o.keyspace, o.valSize)
	} else {
		muxes = make([]*client.Client, o.conns)
		for i := range muxes {
			c, err := client.Dial(o.addr)
			if err != nil {
				return err
			}
			defer c.Close()
			muxes[i] = c
			callers = append(callers, c)
		}
		if err := muxes[0].Ping(); err != nil {
			return err
		}
		fmt.Printf("networked bench: addr=%s clients=%d conns=%d ops=%d read%%=%d keyspace=%d valsize=%d workload=%s\n",
			o.addr, o.clients, o.conns, o.ops, o.readPct, o.keyspace, o.valSize, o.workload)
	}

	key := func(i int) string { return fmt.Sprintf("netbench:%08d", i) }
	value := make([]byte, o.valSize)
	for i := range value {
		value[i] = 'a' + byte(i%26)
	}
	val := string(value)

	// Prefill so reads always hit, in chunked MSETs.
	prefillStart := time.Now()
	const chunk = 512
	for lo := 0; lo < o.keyspace; lo += chunk {
		hi := lo + chunk
		if hi > o.keyspace {
			hi = o.keyspace
		}
		pairs := make(map[string]string, hi-lo)
		for i := lo; i < hi; i++ {
			pairs[key(i)] = val
		}
		if err := callers[lo/chunk%len(callers)].MSet(pairs); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	fmt.Printf("prefill: %d keys in %s\n", o.keyspace, time.Since(prefillStart).Round(time.Millisecond))

	hist := metrics.NewHistogram()
	var opErrs atomic.Int64
	var cursor atomic.Int64
	// Blackout tracking: firstFail holds the unixnano of the first failed
	// op in the current failure run (0 = healthy); the next successful op
	// closes the window and folds its width into maxBlackout.
	var firstFail, maxBlackout atomic.Int64
	var wg sync.WaitGroup
	// Client-process allocation gauge: the mux client's hot path is meant
	// to be allocation-light, so the per-op malloc count is a regression
	// canary (server-side allocs are covered by internal/server's
	// -benchmem benchmarks, which run the server in-process).
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for g := 0; g < o.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*7919 + 1))
			chooser, _ := o.newChooser() // validated above; one per goroutine
			c := callers[g%len(callers)]
			for {
				if int(cursor.Add(1)) > o.ops {
					return
				}
				k := key(int(chooser.Next(rng)))
				opStart := time.Now()
				var err error
				if rng.Intn(100) < o.readPct {
					_, err = c.Get(k)
				} else {
					err = c.Set(k, val)
				}
				now := time.Now()
				if err != nil && err != client.Nil {
					// Failed ops (e.g. fast-fails on a sticky-broken
					// connection, or refused dials mid-failover) must not
					// pollute the latency distribution or count as served
					// throughput.
					opErrs.Add(1)
					firstFail.CompareAndSwap(0, now.UnixNano())
					continue
				}
				if ff := firstFail.Swap(0); ff != 0 {
					if gap := now.UnixNano() - ff; gap > maxBlackout.Load() {
						maxBlackout.Store(gap)
					}
				}
				hist.RecordDuration(now.Sub(opStart))
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	snap := hist.Snapshot()
	okOps := o.ops - int(opErrs.Load())
	fmt.Printf("throughput: %.0f ops/s (%d ok / %d failed in %s)\n",
		float64(okOps)/elapsed.Seconds(), okOps, opErrs.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("latency: %s p90=%s p999=%s\n",
		snap.String(), time.Duration(snap.P90), time.Duration(snap.P999))
	if o.coordinator != "" {
		fmt.Printf("max blackout: %s\n", time.Duration(maxBlackout.Load()).Round(time.Millisecond))
		// Failover blackouts make some failed ops legitimate in cluster
		// mode; the counts above are the report, not a run failure.
		return nil
	}
	var agg client.MuxStats
	for _, c := range muxes {
		st := c.Stats()
		agg.Requests += st.Requests
		agg.WireCommands += st.WireCommands
		agg.Flushes += st.Flushes
		agg.CoalescedGets += st.CoalescedGets
		agg.CoalescedSets += st.CoalescedSets
	}
	window := 0.0
	if agg.Flushes > 0 {
		window = float64(agg.Requests) / float64(agg.Flushes)
	}
	fmt.Printf("mux: requests=%d wire_cmds=%d flushes=%d coalesced_gets=%d coalesced_sets=%d avg_window=%.1f\n",
		agg.Requests, agg.WireCommands, agg.Flushes, agg.CoalescedGets, agg.CoalescedSets, window)
	if okOps > 0 {
		fmt.Printf("client mem: %.1f allocs/op %.0f B/op\n",
			float64(memAfter.Mallocs-memBefore.Mallocs)/float64(okOps),
			float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/float64(okOps))
	}
	printElasticState(muxes[0])
	printTieringState(muxes[0])
	if n := opErrs.Load(); n > 0 {
		return fmt.Errorf("%d operations failed", n)
	}
	return nil
}

// --- replication chaos mode ---

type chaosOpts struct {
	mode       string // slow-replica | partition
	masterAddr string
	listen     string
	ops        int
	valSize    int
}

// runChaosBench measures a live master's behavior while its replication
// link misbehaves. The bench interposes a fault-injecting relay between
// the replica and the master (start the replica with -replicaof pointed
// at the relay address this prints), then drives writes through three
// phases — healthy, faulted, healed — and reports the client-observed
// max write stall per phase plus the master's own robustness counters
// (max_write_stall_ns, laggards_shed, degraded-op counts).
func runChaosBench(o chaosOpts) error {
	switch o.mode {
	case "slow-replica", "partition":
	default:
		return fmt.Errorf("unknown -chaos mode %q (slow-replica | partition)", o.mode)
	}
	if o.ops < 3 {
		return fmt.Errorf("-ops must be at least 3")
	}

	mc, err := client.Dial(o.masterAddr)
	if err != nil {
		return err
	}
	defer mc.Close()
	if err := mc.Ping(); err != nil {
		return err
	}

	proxy, err := faults.NewProxy(o.listen, o.masterAddr)
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	defer proxy.Close()
	fmt.Printf("chaos %s: replication-link relay up at %s -> %s\n", o.mode, proxy.Addr(), o.masterAddr)
	fmt.Printf("point the replica through it:  tierbase-server -node-id r1 -replicaof %s ...\n", proxy.Addr())

	// The drill needs a replica attached through the relay before the
	// fault means anything.
	fmt.Print("waiting for a replica to attach through the relay... ")
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if n := infoField(mc, "replication", "connected_replicas"); n != "" && n != "0" {
			fmt.Printf("attached (connected_replicas=%s)\n", n)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no replica attached through the relay within 2m")
		}
		time.Sleep(200 * time.Millisecond)
	}

	val := strings.Repeat("x", o.valSize)
	phase := func(name string, n int) (time.Duration, int64) {
		var maxStall time.Duration
		var failed int64
		for i := 0; i < n; i++ {
			start := time.Now()
			err := mc.Set(fmt.Sprintf("chaosbench:%s:%08d", name, i), val)
			if lat := time.Since(start); lat > maxStall {
				maxStall = lat
			}
			if err != nil {
				failed++ // e.g. NOREPLICAS under semi-sync during a partition
			}
		}
		fmt.Printf("phase %-8s %6d writes  max_stall=%-12s failed=%d\n",
			name, n, maxStall.Round(time.Microsecond), failed)
		return maxStall, failed
	}

	third := o.ops / 3
	phase("healthy", third)

	switch o.mode {
	case "slow-replica":
		proxy.Injector().SetByteRate(128 << 10) // ~10x slower than a LAN link
		fmt.Println("fault injected: replication link capped at 128 KiB/s")
	case "partition":
		proxy.Injector().Partition()
		fmt.Println("fault injected: replication link partitioned (both directions blackholed)")
	}
	faultStall, faultFailed := phase("faulted", third)

	proxy.Injector().Heal()
	if o.mode == "partition" {
		proxy.DropConns() // flush zombie relays; the replica redials
	}
	fmt.Println("fault healed")
	phase("healed", o.ops-2*third)

	fmt.Println("\nmaster robustness counters:")
	for _, f := range []string{"max_write_stall_ns", "laggards_shed", "full_syncs_served", "connected_replicas"} {
		if v := infoField(mc, "replication", f); v != "" {
			if f == "max_write_stall_ns" {
				ns, _ := strconv.ParseInt(v, 10, 64)
				fmt.Printf("  %s:%s (%s)\n", f, v, time.Duration(ns).Round(time.Microsecond))
				continue
			}
			fmt.Printf("  %s:%s\n", f, v)
		}
	}
	fmt.Println("master health counters:")
	for _, f := range []string{"degraded_shards", "degraded_ops", "degraded_transitions", "storage_errors", "storage_retries"} {
		if v := infoField(mc, "health", f); v != "" {
			fmt.Printf("  %s:%s\n", f, v)
		}
	}
	if faultFailed > 0 {
		fmt.Printf("\n%d writes failed during the fault window (expected under semi-sync); max stall while faulted was %s\n",
			faultFailed, faultStall.Round(time.Microsecond))
	}
	return nil
}

// --- overload drill mode ---

type overloadOpts struct {
	mode    string // conn-storm | slow-reader | write-flood
	addr    string
	ops     int
	valSize int
	clients int
}

// runOverloadBench attacks a live server with one overload shape —
// a connection storm past the admission cap, a slow reader that
// pipelines requests and never drains replies, or a write flood past
// the memory high watermark — while one well-behaved reader keeps
// polling. Overload protection is judged from both sides: the server's
// shed counters (INFO overload) and the victim reader's p99, because
// shedding the attacker is only a win if the healthy client stays fast.
func runOverloadBench(o overloadOpts) error {
	switch o.mode {
	case "conn-storm", "slow-reader", "write-flood":
	default:
		return fmt.Errorf("unknown -overload mode %q (conn-storm | slow-reader | write-flood)", o.mode)
	}
	mc, err := client.Dial(o.addr)
	if err != nil {
		return err
	}
	defer mc.Close()
	if err := mc.Ping(); err != nil {
		return err
	}

	const probeKey = "overloadbench:probe"
	if err := mc.Set(probeKey, strings.Repeat("p", 64)); err != nil {
		return err
	}
	hist := metrics.NewHistogram()
	var readErrs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc, err := client.Dial(o.addr)
		if err != nil {
			return
		}
		defer rc.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			if _, err := rc.Get(probeKey); err != nil {
				readErrs.Add(1)
				time.Sleep(10 * time.Millisecond)
				continue
			}
			hist.RecordDuration(time.Since(start))
		}
	}()

	var attackErr error
	switch o.mode {
	case "conn-storm":
		attackErr = connStorm(o)
	case "slow-reader":
		attackErr = slowReader(o, mc)
	case "write-flood":
		attackErr = writeFlood(o)
	}
	close(stop)
	wg.Wait()
	if attackErr != nil {
		return attackErr
	}

	snap := hist.Snapshot()
	fmt.Printf("\nhealthy reader under attack: %d reads (%d failed) p50=%s p99=%s p999=%s\n",
		snap.Count, readErrs.Load(),
		time.Duration(snap.P50), time.Duration(snap.P99), time.Duration(snap.P999))
	fmt.Println("server overload state:")
	printInfoSection(mc, "overload")
	return nil
}

// connStorm opens a burst of raw connections and classifies each by the
// server's first reply: +PONG means admitted (the slot is held open for
// the storm's duration so later dials actually contend), -MAXCONN means
// the admission cap refused it.
func connStorm(o overloadOpts) error {
	storm := o.clients
	if storm < 16 {
		storm = 16
	}
	fmt.Printf("conn-storm: opening %d concurrent connections against %s\n", storm, o.addr)
	if v := infoFieldAt(o.addr, "overload", "max_conns"); v == "0" {
		fmt.Println("conn-storm: note: server reports max_conns:0 (unlimited) — nothing will be refused")
	}
	var accepted, rejected, failed atomic.Int64
	held := make(chan net.Conn, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc, err := net.DialTimeout("tcp", o.addr, 5*time.Second)
			if err != nil {
				failed.Add(1)
				return
			}
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := nc.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
				failed.Add(1)
				nc.Close()
				return
			}
			line, err := bufio.NewReader(nc).ReadString('\n')
			switch {
			case err == nil && strings.HasPrefix(line, "-MAXCONN"):
				rejected.Add(1)
				nc.Close()
			case err == nil && strings.HasPrefix(line, "+PONG"):
				accepted.Add(1)
				nc.SetDeadline(time.Time{})
				held <- nc
			default:
				failed.Add(1)
				nc.Close()
			}
		}()
	}
	wg.Wait()
	close(held)
	for nc := range held {
		nc.Close()
	}
	fmt.Printf("conn-storm: accepted=%d rejected(-MAXCONN)=%d failed=%d\n",
		accepted.Load(), rejected.Load(), failed.Load())
	return nil
}

// slowReader pipelines GETs for a fat value over one raw connection and
// never reads a byte of reply, so the server's buffered output for this
// connection only grows. A protected server sheds it — at the output
// cap, or when the flush write-timeout fires against the jammed socket —
// which the attacker observes as a hard write error (timeouts are mere
// backpressure and keep the attack going).
func slowReader(o overloadOpts, mc *client.Client) error {
	blobSize := o.valSize
	if blobSize < 4096 {
		blobSize = 4096 // make each unread reply count
	}
	const blobKey = "overloadbench:blob"
	if err := mc.Set(blobKey, strings.Repeat("b", blobSize)); err != nil {
		return err
	}
	nc, err := net.DialTimeout("tcp", o.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	req := []byte(fmt.Sprintf("*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(blobKey), blobKey))
	pipeline := bytes.Repeat(req, 64)
	fmt.Printf("slow-reader: pipelining GETs of a %dB value, never reading replies\n", blobSize)
	start := time.Now()
	var sent int64
	buf := pipeline
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
		n, err := nc.Write(buf)
		sent += int64(n)
		buf = buf[n:]
		if len(buf) == 0 {
			buf = pipeline
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // backpressure, not a shed: the socket is jammed, keep pushing
			}
			fmt.Printf("slow-reader: shed after %s (%d request bytes sent, ~%s of replies owed)\n",
				time.Since(start).Round(time.Millisecond), sent,
				byteCount(sent/int64(len(req))*int64(blobSize)))
			return nil
		}
	}
	return fmt.Errorf("slow-reader: connection survived 2m unread — set -max-output-bytes / -write-timeout on the server")
}

// writeFlood hammers writes until the server trips its memory high
// watermark and starts refusing them with -OVERLOADED, then stops and
// waits for writes to come back once memory drains below the low
// watermark. Reads keep serving throughout (the healthy-reader probe in
// runOverloadBench measures that side).
func writeFlood(o overloadOpts) error {
	val := strings.Repeat("w", o.valSize)
	fmt.Printf("write-flood: %d writers, %d ops of %dB values\n", o.clients, o.ops, o.valSize)
	var acked, shed, failed atomic.Int64
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < o.clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(o.addr)
			if err != nil {
				failed.Add(1)
				return
			}
			defer c.Close()
			for {
				i := int(cursor.Add(1))
				if i > o.ops {
					return
				}
				err := c.Set(fmt.Sprintf("overloadbench:flood:%010d", i), val)
				var ov *client.OverloadedError
				switch {
				case err == nil:
					acked.Add(1)
				case errors.As(err, &ov):
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Printf("write-flood: %d acked, %d shed with -OVERLOADED, %d other errors\n",
		acked.Load(), shed.Load(), failed.Load())
	if shed.Load() == 0 {
		fmt.Println("write-flood: watermark never tripped — raise -ops/-valsize or lower the server's -high-watermark-bytes")
		return nil
	}
	// Recovery: writes must resume once eviction / write-back flushing /
	// log trimming drains memory below the low watermark.
	c, err := client.Dial(o.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	start := time.Now()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := c.Set("overloadbench:recovery", "ok")
		if err == nil {
			fmt.Printf("write-flood: writes recovered %s after the flood stopped\n",
				time.Since(start).Round(time.Millisecond))
			return nil
		}
		var ov *client.OverloadedError
		if !errors.As(err, &ov) {
			return err
		}
		if time.Now().After(deadline) {
			fmt.Println("write-flood: still -OVERLOADED 30s after the flood — memory has nowhere to drain (no eviction or write-back tier configured?)")
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// byteCount renders n in a human unit for drill output.
func byteCount(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// printInfoSection dumps every field of one INFO section, sorted by name.
func printInfoSection(c *client.Client, section string) {
	fields, _ := c.Info(section)
	for _, k := range slices.Sorted(maps.Keys(fields)) {
		fmt.Printf("  %s:%s\n", k, fields[k])
	}
}

// infoFieldAt reads one INFO field over a throwaway connection.
func infoFieldAt(addr, section, field string) string {
	c, err := client.Dial(addr)
	if err != nil {
		return ""
	}
	defer c.Close()
	return infoField(c, section, field)
}

// infoField reads one field of an INFO section, "" if unavailable.
func infoField(c *client.Client, section, field string) string {
	fields, _ := c.Info(section)
	return fields[field]
}

// printTieringState reports the cache-tiering section from INFO tiering:
// per shard, the cache budget, the bytes resident against it and the hit,
// miss and eviction counts the run left behind.
func printTieringState(c *client.Client) {
	if n := infoField(c, "tiering", "tiered_shards"); n == "" || n == "0" {
		return // cache-only server: no tiering section to report
	}
	fmt.Println("server tiering state:")
	printInfoSection(c, "tiering")
}

// printElasticState reports each shard's elastic pool state from INFO
// server — whether the run pushed the server into boost mode (and how
// often it boosted) is part of the result, not something to infer from
// throughput alone.
func printElasticState(c *client.Client) {
	fields, err := c.Info("server")
	if err != nil {
		return // an old server without INFO is still benchable
	}
	fmt.Println("server elastic state:")
	elastic := []string{"_mode", "_workers", "_boosts", "_shrinks", "_queue_depth", "_tasks"}
	for _, k := range slices.Sorted(maps.Keys(fields)) {
		if slices.ContainsFunc(elastic, func(suffix string) bool { return strings.HasSuffix(k, suffix) }) {
			fmt.Printf("  %s:%s\n", k, fields[k])
		}
	}
}
