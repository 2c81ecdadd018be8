package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/cluster"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/metrics"
)

// Server is the TierBase RESP server. It is configured by Config (see
// config.go); replication/cluster behavior lives in replication.go.
type Server struct {
	opts   Config
	ln     net.Listener
	shards []*shard
	repl   *serverRepl // nil unless Config.Replication is enabled
	wg     sync.WaitGroup
	connWg sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]*conn
	closed bool
	stopCh chan struct{}
	over   overloadState

	// Latency is the server-side command latency histogram.
	Latency *metrics.Histogram
	// Throughput counts completed commands.
	Throughput *metrics.Meter
}

// shard is one data node: an engine, the tiered store every command
// reaches it through (cache-only when the deployment has no storage tier)
// and the pool that runs its commands.
type shard struct {
	eng    *engine.Engine
	tiered *cache.Tiered
	pool   *elastic.Pool
}

// Start listens and serves until Close.
func Start(opts Config) (*Server, error) {
	opts.normalize()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	factory := opts.TieredFactory
	if factory == nil {
		factory = func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.CacheOnly, Engine: eng})
		}
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	s := &Server{
		opts:       opts,
		ln:         ln,
		conns:      make(map[net.Conn]*conn),
		stopCh:     make(chan struct{}),
		Latency:    metrics.NewHistogram(),
		Throughput: metrics.NewMeter(),
	}
	for i := 0; i < opts.Shards; i++ {
		eng := engine.New(opts.EngineOptions)
		tr, err := factory(eng)
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.shards = append(s.shards, &shard{eng: eng, tiered: tr, pool: elastic.NewPool(opts.Pool)})
	}
	if opts.Replication.Enabled() {
		s.repl = newServerRepl(s, opts.Replication)
		for _, sh := range s.shards {
			sh.tiered.SetSink(s.repl)
		}
		s.repl.start()
	}
	if opts.Overload.HighWatermarkBytes > 0 {
		s.wg.Add(1)
		go s.watermarkLoop()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) shardIndex(key []byte) int {
	if len(s.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(len(s.shards)))
}

func (s *Server) shardFor(key []byte) *shard {
	return s.shards[s.shardIndex(key)]
}

var errShuttingDown = errors.New("server shutting down")

// fanOut is the shared body of MGET, MSET and DEL: keys[0], keys[stride],
// keys[2*stride]... group by owning shard, and fn runs once per group on
// that shard's pool with the group's indexes into keys — submitted from
// the calling goroutine when one shard owns them all, otherwise from one
// goroutine per group, in parallel across shards. Returns the first error.
// fn calls run concurrently: each may write only what its own indexes name.
func (s *Server) fanOut(keys [][]byte, stride int, fn func(sh *shard, idxs []int) error) error {
	groups := make(map[int][]int)
	for i := 0; i < len(keys); i += stride {
		si := s.shardIndex(keys[i])
		groups[si] = append(groups[si], i)
	}
	submit := func(si int, idxs []int) error {
		sh := s.shards[si]
		var err error
		if perr := sh.pool.SubmitWait(func() { err = fn(sh, idxs) }); perr != nil {
			return errShuttingDown
		}
		return err
	}
	if len(groups) == 1 {
		for si, idxs := range groups {
			return submit(si, idxs)
		}
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for si, idxs := range groups {
		wg.Add(1)
		go func(si int, idxs []int) {
			defer wg.Done()
			if err := submit(si, idxs); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(si, idxs)
	}
	wg.Wait()
	return first
}

// stringsAt copies args[i] for each i in idxs out of the parse buffers.
func stringsAt(args [][]byte, idxs []int) []string {
	out := make([]string, len(idxs))
	for j, i := range idxs {
		out[j] = string(args[i])
	}
	return out
}

// --- connection handling ---

// conn is one client connection's state: the command reader (pooled parse
// buffers), the reply output buffer, and the reusable pool task. One
// command is in flight at a time, so every buffer here is single-owner at
// any instant: the conn goroutine owns them between commands, the shard
// worker owns out (via the task) during execution.
type conn struct {
	srv        *Server
	nc         net.Conn
	cr         *cmdReader
	out        []byte
	cmdScratch [16]byte
	task       connTask
	// hijack, when set by a command (SYNC), takes over the connection
	// after the current reply flushes: serveConn flushes c.out, invokes
	// hijack on the connection goroutine, and returns when it does.
	hijack func()
	// hijacked marks the connection as handed to a replication session.
	// Graceful drain and the overload deadlines skip hijacked
	// connections: a replication session owns its socket and manages its
	// own deadlines and laggard shedding (see serveReplica).
	hijacked atomic.Bool
}

const (
	// flushThreshold forces a socket write mid-pipeline once this much
	// reply data has accumulated.
	flushThreshold = 64 << 10
	// maxRetainedOut caps the reply buffer kept across commands.
	maxRetainedOut = 1 << 20
)

// connTask is the connection's reusable elastic.Task: one command
// execution on a shard worker. Reusing one task object (and its
// 1-buffered done channel) keeps the submit path allocation-free. The
// conn goroutine blocks on done until the worker finishes, so the fields
// — and the parse buffers the args alias — are never reused concurrently.
type connTask struct {
	c    *conn
	sh   *shard
	cmd  string
	args [][]byte
	done chan struct{}
}

// Run executes the command on the shard worker, appending the reply to
// the connection's output buffer.
func (t *connTask) Run() {
	t.c.out = execute(t.sh, t.cmd, t.args, t.c.out)
	t.done <- struct{}{}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	// Transient accept failures (EMFILE under a connection storm, a
	// half-open socket reset before accept) must not kill the listener:
	// back off with jitter and retry. Only a closed listener (Close or
	// Shutdown) exits the loop.
	bo := &cluster.Backoff{Base: 5 * time.Millisecond, Max: time.Second}
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			select {
			case <-s.stopCh:
				return
			case <-time.After(bo.Next()):
			}
			continue
		}
		bo.Reset()
		if s.opts.WrapConn != nil {
			nc = s.opts.WrapConn(nc)
		}
		c := &conn{srv: s, nc: nc, cr: newCmdReader(nc)}
		c.task.c = c
		c.task.done = make(chan struct{}, 1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		if max := s.opts.Overload.MaxConns; max > 0 && len(s.conns) >= max {
			// Admission control: refuse before committing a goroutine or
			// parse arena to the connection. The rejection reply is
			// best-effort on a goroutine of its own so a non-draining
			// storm client can't stall the accept loop.
			s.mu.Unlock()
			s.over.maxConnRejects.Add(1)
			go rejectMaxConn(nc)
			continue
		}
		s.conns[nc] = c
		s.mu.Unlock()
		s.connWg.Add(1)
		go s.serveConn(c)
	}
}

// rejectMaxConn answers an over-cap connection with the typed -MAXCONN
// error and closes it. Best-effort: the write is bounded so a client
// that never reads can't pin the goroutine.
func rejectMaxConn(nc net.Conn) {
	nc.SetWriteDeadline(time.Now().Add(time.Second))
	nc.Write([]byte(maxConnReply))
	nc.Close()
}

func (s *Server) serveConn(c *conn) {
	nc := c.nc
	defer s.connWg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	cfg := &s.opts.Overload
	for {
		if cfg.ReadTimeout > 0 && !c.hijacked.Load() {
			nc.SetReadDeadline(time.Now().Add(cfg.ReadTimeout))
		}
		args, err := c.cr.ReadCommand()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.over.idleCloses.Add(1)
			}
			return
		}
		start := time.Now()
		s.dispatch(c, args)
		s.Latency.RecordDuration(time.Since(start))
		s.Throughput.Mark(1)
		if c.hijack != nil {
			// A command (SYNC) is taking over the connection: flush any
			// pending replies, then hand the socket to the hijacker. It
			// runs on this goroutine; when it returns the connection dies.
			// The session sets its own deadlines, so clear ours first.
			c.hijacked.Store(true)
			nc.SetDeadline(time.Time{})
			if len(c.out) > 0 {
				if _, err := c.nc.Write(c.out); err != nil {
					return
				}
				c.out = nil
			}
			c.hijack()
			return
		}
		// Slow-client shedding: a client that pipelines faster than it
		// drains replies grows c.out without bound (the flush below only
		// runs a bounded write). Cut it off at the output cap.
		s.over.slowestOut.Observe(int64(len(c.out)))
		if outCap := cfg.MaxOutputBytes; outCap > 0 && len(c.out) > outCap {
			s.over.shedConns.Add(1)
			return
		}
		// Write when no more pipelined commands are buffered (one syscall
		// per pipeline window), or when the window's replies grow large.
		if c.cr.Buffered() == 0 || len(c.out) >= flushThreshold {
			if cfg.WriteTimeout > 0 {
				nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
			}
			if _, err := c.nc.Write(c.out); err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					s.over.shedConns.Add(1)
				}
				return
			}
			if cfg.WriteTimeout > 0 {
				nc.SetWriteDeadline(time.Time{})
			}
			if cap(c.out) > maxRetainedOut {
				c.out = nil
			} else {
				c.out = c.out[:0]
			}
		}
	}
}

// submit runs one command on sh's pool through the connection's reusable
// task and waits for completion.
func (s *Server) submit(c *conn, sh *shard, cmd string, args [][]byte) {
	t := &c.task
	t.sh, t.cmd, t.args = sh, cmd, args
	if err := sh.pool.SubmitTask(t); err != nil {
		c.out = appendError(c.out, "server shutting down")
		return
	}
	<-t.done
	t.args = nil
}

// dispatch routes one command, appending its reply to c.out. Replication
// (when enabled) intercepts first: replication commands, role-aware write
// rejection, and the semi-sync gate all live in the repl layer; anything
// it declines falls through to plain execution.
func (s *Server) dispatch(c *conn, args [][]byte) {
	if len(args) == 0 {
		c.out = appendError(c.out, "empty command")
		return
	}
	cmd := canonicalCommand(args[0], &c.cmdScratch)
	// Watermark gate: above the high watermark writes fail fast with the
	// typed retryable -OVERLOADED while reads keep serving. Replication
	// is exempt by construction — SYNC/REPLICAOF/CLUSTER are not write
	// commands and the replica apply path doesn't pass through dispatch.
	if isWriteCommand(cmd) && s.rejectWrites() {
		s.over.rejectedWrites.Add(1)
		c.out = appendRawError(c.out, overloadedReply)
		return
	}
	if s.repl != nil && s.repl.intercept(c, cmd, args) {
		return
	}
	s.dispatchCmd(c, cmd, args)
}

// dispatchCmd executes one command with no replication awareness.
// Server-level commands run inline on the connection goroutine; per-key
// commands run on the owning shard's pool; multi-key commands fan out
// per shard.
func (s *Server) dispatchCmd(c *conn, cmd string, args [][]byte) {
	switch cmd {
	case "PING":
		c.out = appendSimple(c.out, "PONG")
		return
	case "ECHO":
		if len(args) != 2 {
			c.out = appendError(c.out, "wrong number of arguments for 'echo'")
			return
		}
		c.out = appendBulk(c.out, args[1])
		return
	case "DBSIZE":
		var n int64
		for _, sh := range s.shards {
			n += int64(sh.eng.Len())
		}
		c.out = appendInt(c.out, n)
		return
	case "FLUSHALL":
		// Through the tiered store: clearing only the cache tier would let
		// flushed keys resurrect from storage on their next miss (and the
		// clear must replicate).
		for _, sh := range s.shards {
			if err := sh.tiered.FlushAll(); err != nil {
				c.out = appendError(c.out, err.Error())
				return
			}
		}
		c.out = appendSimple(c.out, "OK")
		return
	case "INFO":
		if len(args) > 2 {
			c.out = appendError(c.out, "wrong number of arguments for 'info'")
			return
		}
		section := ""
		if len(args) == 2 {
			section = strings.ToLower(string(args[1]))
		}
		c.out = appendBulkString(c.out, s.info(section))
		return
	case "MGET":
		if len(args) < 2 {
			c.out = appendError(c.out, "wrong number of arguments for 'mget'")
			return
		}
		if len(args) == 2 {
			// Single-key MGET (the client's GET vehicle): no fan-out, no
			// per-key string bookkeeping — straight to the shard pool.
			s.submit(c, s.shardFor(args[1]), cmd, args)
			return
		}
		s.mget(c, args[1:])
		return
	case "MSET":
		if len(args) < 3 || len(args)%2 != 1 {
			c.out = appendError(c.out, "wrong number of arguments for 'mset'")
			return
		}
		if len(args) == 3 {
			// Single pair: identical to SET (both reply +OK).
			s.submit(c, s.shardFor(args[1]), "SET", args)
			return
		}
		s.mset(c, args[1:])
		return
	case "DEL", "UNLINK":
		if len(args) < 2 {
			c.out = appendError(c.out, "wrong number of arguments for 'del'")
			return
		}
		if len(args) == 2 {
			s.submit(c, s.shardFor(args[1]), "DEL", args)
			return
		}
		s.del(c, args[1:])
		return
	case "":
		c.out = append(c.out, "-ERR unknown command '"...)
		c.out = append(c.out, args[0]...)
		c.out = append(c.out, "'\r\n"...)
		return
	}
	if len(args) < 2 {
		c.out = appendError(c.out, "wrong number of arguments")
		return
	}
	s.submit(c, s.shardFor(args[1]), cmd, args)
}

// mget serves multi-key MGET: each shard runs one batch get, replies
// reassemble in request order — the multi-key fan-out the paper's client
// batching relies on.
func (s *Server) mget(c *conn, keyArgs [][]byte) {
	vals := make([][]byte, len(keyArgs))
	err := s.fanOut(keyArgs, 1, func(sh *shard, idxs []int) error {
		keys := stringsAt(keyArgs, idxs)
		got, err := sh.tiered.BatchGet(keys)
		for j, i := range idxs {
			vals[i] = got[keys[j]]
		}
		return err
	})
	if err != nil {
		c.out = appendError(c.out, err.Error())
		return
	}
	c.out = appendBulkArray(c.out, vals)
}

// appendBulkArray renders values (nil = absent) as an array of bulks.
func appendBulkArray(out []byte, vals [][]byte) []byte {
	out = appendArrayLen(out, len(vals))
	for _, v := range vals {
		out = appendBulk(out, v)
	}
	return out
}

// del serves multi-key DEL/UNLINK: each shard runs one tiered BatchDelete,
// and the reply is the summed count of keys that existed in any tier.
func (s *Server) del(c *conn, keyArgs [][]byte) {
	var total atomic.Int64
	err := s.fanOut(keyArgs, 1, func(sh *shard, idxs []int) error {
		keys := stringsAt(keyArgs, idxs)
		n, err := sh.tiered.BatchDelete(keys)
		total.Add(int64(n))
		return err
	})
	if err != nil {
		c.out = appendError(c.out, err.Error())
		return
	}
	c.out = appendInt(c.out, total.Load())
}

// mset serves multi-pair MSET: each shard applies one batch put.
func (s *Server) mset(c *conn, kvArgs [][]byte) {
	err := s.fanOut(kvArgs, 2, func(sh *shard, idxs []int) error {
		entries := make(map[string][]byte, len(idxs))
		for _, i := range idxs {
			// Copy out of the parse arena; keep empty values non-nil (nil
			// means delete in BatchPut, and MSET k "" must store "").
			val := make([]byte, len(kvArgs[i+1]))
			copy(val, kvArgs[i+1])
			entries[string(kvArgs[i])] = val
		}
		return sh.tiered.BatchPut(entries)
	})
	if err != nil {
		c.out = appendError(c.out, err.Error())
		return
	}
	c.out = appendSimple(c.out, "OK")
}

// info renders INFO output. section filters to one section ("server",
// "writepath", "storage", "tiering", "health", "overload"); empty
// renders everything.
func (s *Server) info(section string) string {
	var b strings.Builder
	if section == "" || section == "server" {
		fmt.Fprintf(&b, "# Server\r\nshards:%d\r\n", len(s.shards))
		var keys int
		var mem, payload, free int64
		for i, sh := range s.shards {
			st := sh.eng.Stats()
			keys += st.Keys
			mem += st.MemBytes
			payload += st.PayloadBytes
			free += st.FreeBytes
			ps := sh.pool.Stats()
			fmt.Fprintf(&b, "shard%d_workers:%d\r\n", i, ps.Workers)
			fmt.Fprintf(&b, "shard%d_max_workers:%d\r\n", i, ps.MaxWorkers)
			fmt.Fprintf(&b, "shard%d_mode:%s\r\n", i, sh.pool.Mode())
			fmt.Fprintf(&b, "shard%d_boosts:%d\r\n", i, ps.Boosts)
			fmt.Fprintf(&b, "shard%d_shrinks:%d\r\n", i, ps.Shrinks)
			fmt.Fprintf(&b, "shard%d_queue_depth:%d\r\n", i, ps.Backlog)
			fmt.Fprintf(&b, "shard%d_tasks:%d\r\n", i, ps.Executed)
			fmt.Fprintf(&b, "shard%d_submit_rate:%.1f\r\n", i, ps.SubmitRate)
		}
		fmt.Fprintf(&b, "keys:%d\r\nmem_bytes:%d\r\n", keys, mem)
		fmt.Fprintf(&b, "mem_payload_bytes:%d\r\nmem_overhead_bytes:%d\r\n", payload, mem-payload)
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
// shape and write volume.
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
	}
}

// writePathInfo renders the write-path section: aggregate write-back
// flush/backpressure counters, plus each shard's per-stripe dirty
// distribution (the write path stripes along the engine's lock stripes).
func (s *Server) writePathInfo(b *strings.Builder) {
	fmt.Fprintf(b, "# WritePath\r\n")
	tiered := s.tieredShards()
	fmt.Fprintf(b, "tiered_shards:%d\r\n", tiered)
	if tiered == 0 {
		return // cache-only deployment: no write path to report
	}
	var rounds, flushed, waits int64
	var dirty, stripes int
	for _, sh := range s.shards {
		st := sh.tiered.Stats()
		rounds += st.Batches
		flushed += st.Flushed
		waits += st.BackpressureWaits
		dirty += st.Dirty
		stripes += sh.tiered.WriteStripes()
	}
	fmt.Fprintf(b, "write_stripes:%d\r\n", stripes)
	fmt.Fprintf(b, "flush_rounds:%d\r\n", rounds)
	fmt.Fprintf(b, "flushed_entries:%d\r\n", flushed)
	fmt.Fprintf(b, "backpressure_waits:%d\r\n", waits)
	fmt.Fprintf(b, "dirty_entries:%d\r\n", dirty)
	for i, sh := range s.shards {
		fmt.Fprintf(b, "shard%d_policy:%s\r\n", i, sh.tiered.Policy())
		ds := sh.tiered.DirtyStripes()
		parts := make([]string, len(ds))
		for j, n := range ds {
			parts[j] = strconv.Itoa(n)
		}
		fmt.Fprintf(b, "shard%d_dirty_stripes:%s\r\n", i, strings.Join(parts, ","))
	}
}

// Shards exposes shard engines for measurement (benches).
func (s *Server) Shards() []*engine.Engine {
	out := make([]*engine.Engine, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.eng
	}
	return out
}

// Pools exposes shard pools (elastic threading observation).
func (s *Server) Pools() []*elastic.Pool {
	out := make([]*elastic.Pool, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.pool
	}
	return out
}

// beginClose transitions the server into the closed state exactly once.
// Reports false when another Close/Shutdown already won.
func (s *Server) beginClose() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	return true
}

// Close stops accepting, closes connections, and shuts down shards.
// Connections are cut immediately; use Shutdown for a graceful drain.
func (s *Server) Close() error {
	if !s.beginClose() {
		return nil
	}
	close(s.stopCh)
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.finishClose()
	return err
}

// Shutdown drains the server gracefully: deregister from the
// coordinator (so routing tables drop this node before it goes dark),
// stop accepting, let in-flight client commands finish and their
// replies flush (bounded by Overload.DrainTimeout), then close — which
// flushes write-back dirty state through tiered.Close. An acked write
// is therefore never lost to a drain: it either flushed to storage or
// replicated before the socket closed.
func (s *Server) Shutdown() error {
	if !s.beginClose() {
		return nil
	}
	if s.repl != nil {
		s.repl.deregister()
	}
	close(s.stopCh)
	err := s.ln.Close()
	deadline := time.Now().Add(s.opts.Overload.DrainTimeout)
	for {
		// Kick idle connections out of ReadCommand by expiring their read
		// deadline: a conn blocked between commands fails its next read
		// and exits; a conn mid-pipeline finishes the buffered window
		// (already-parsed commands execute and flush) before its next
		// socket read fails. Re-expire each pass — the serve loop re-arms
		// deadlines when ReadTimeout is configured.
		s.mu.Lock()
		n := 0
		for _, c := range s.conns {
			if c.hijacked.Load() {
				continue // replication sessions close with repl below
			}
			c.nc.SetReadDeadline(time.Now())
			n++
		}
		s.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Force whatever remains (drain timeout, or hijacked sessions whose
	// shutdown repl.close handles inside finishClose).
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.finishClose()
	return err
}

// finishClose joins the background goroutines and shuts the shards
// down. The tiered Close flushes all write-back dirty state to storage
// before returning.
func (s *Server) finishClose() {
	if s.repl != nil {
		// Stop replication before joining connection goroutines: hijacked
		// SYNC connections block in OpLog streams, which only close here
		// unblocks.
		s.repl.close()
	}
	s.wg.Wait()
	s.connWg.Wait()
	for _, sh := range s.shards {
		sh.pool.Stop()
		sh.tiered.Close()
	}
}

// --- command execution on a shard ---

// rmw runs op — an engine mutation plus its propagation — with cross-tier
// discipline: the key is warmed first (so the op composes with a value
// that was evicted to storage or predates a restart), then op runs under
// the key's RMW stripe lock so the propagation commits in engine order
// (see cache/rmw.go).
func (sh *shard) rmw(key string, op func() error) error {
	sh.tiered.Warm(key)
	return sh.tiered.Locked(key, op)
}

// propagateCollection commits key's current collection state — or its
// deletion, when the op emptied it.
func (sh *shard) propagateCollection(key string) error {
	if blob, ok := sh.eng.EncodeCollection(key); ok {
		return sh.tiered.PropagateEncoded(key, blob)
	}
	return sh.tiered.PropagateDelete(key)
}

func notFoundish(err error) bool {
	return errors.Is(err, engine.ErrNotFound) || errors.Is(err, cache.ErrNotFound)
}

// execute runs one per-key command on its shard, appending the RESP reply
// to out. args alias the connection's parse buffers: safe to read for the
// duration of the call (execution is synchronous), copied by any layer
// that retains them.
func execute(sh *shard, cmd string, args [][]byte, out []byte) []byte {
	eng, tr := sh.eng, sh.tiered
	key := string(args[1])
	switch cmd {
	case "SET":
		if len(args) != 3 {
			return appendError(out, "wrong number of arguments for 'set'")
		}
		if err := tr.Set(key, args[2]); err != nil {
			return appendError(out, err.Error())
		}
		return appendSimple(out, "OK")
	case "GET":
		v, err := tr.Get(key)
		if notFoundish(err) {
			return appendBulk(out, nil)
		}
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendBulk(out, v)
	case "MGET":
		// Single-key fast path (dispatch fans multi-key MGET out itself):
		// same element semantics as the batch path — absent and
		// wrong-typed keys report nil.
		v, err := tr.Get(key)
		if err != nil {
			if !notFoundish(err) && !errors.Is(err, engine.ErrWrongType) {
				return appendError(out, err.Error())
			}
			v = nil
		}
		out = appendArrayLen(out, 1)
		return appendBulk(out, v)
	case "DEL":
		// Single-key fast path; multi-key DEL fans out in dispatch.
		n, err := tr.BatchDelete([]string{key})
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, int64(n))
	case "EXISTS":
		tr.Warm(key)
		if eng.Exists(key) {
			return appendInt(out, 1)
		}
		return appendInt(out, 0)
	case "TYPE":
		tr.Warm(key)
		return appendSimple(out, eng.Type(key).String())
	case "SETNX":
		if len(args) != 3 {
			return appendError(out, "wrong number of arguments for 'setnx'")
		}
		var created bool
		err := sh.rmw(key, func() error {
			var err error
			created, err = eng.SetNX(key, args[2])
			if err != nil || !created {
				return err
			}
			return tr.PropagateString(key, args[2])
		})
		if err != nil {
			return appendError(out, err.Error())
		}
		if created {
			return appendInt(out, 1)
		}
		return appendInt(out, 0)
	case "INCR", "DECR", "INCRBY", "DECRBY":
		delta := int64(1)
		if cmd == "INCRBY" || cmd == "DECRBY" {
			if len(args) != 3 {
				return appendError(out, "wrong number of arguments")
			}
			d, err := strconv.ParseInt(string(args[2]), 10, 64)
			if err != nil {
				return appendError(out, "value is not an integer or out of range")
			}
			delta = d
		}
		if cmd == "DECR" || cmd == "DECRBY" {
			delta = -delta
		}
		var v int64
		err := sh.rmw(key, func() error {
			var err error
			v, err = eng.IncrBy(key, delta)
			if err != nil {
				return err
			}
			return tr.PropagateString(key, strconv.AppendInt(nil, v, 10))
		})
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, v)
	case "CAS":
		// CAS key oldval newval — the paper's compare-and-set extension.
		if len(args) != 4 {
			return appendError(out, "wrong number of arguments for 'cas'")
		}
		err := sh.rmw(key, func() error {
			if err := eng.CompareAndSet(key, args[2], args[3]); err != nil {
				return err
			}
			return tr.PropagateString(key, args[3])
		})
		if err == engine.ErrCASMismatch {
			return appendInt(out, 0)
		}
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, 1)
	case "EXPIRE":
		if len(args) != 3 {
			return appendError(out, "wrong number of arguments for 'expire'")
		}
		secs, err := strconv.ParseInt(string(args[2]), 10, 64)
		if err != nil {
			return appendError(out, "value is not an integer or out of range")
		}
		tr.Warm(key)
		// Through the tiered store: the TTL replicates as an absolute
		// deadline and expiry later deletes through to storage.
		if tr.ExpireAt(key, time.Now().Add(time.Duration(secs)*time.Second).UnixNano()) {
			return appendInt(out, 1)
		}
		return appendInt(out, 0)
	case "TTL":
		tr.Warm(key)
		d, ok := eng.TTL(key)
		if !ok {
			if eng.Exists(key) {
				return appendInt(out, -1)
			}
			return appendInt(out, -2)
		}
		return appendInt(out, int64(d/time.Second))
	case "PERSIST":
		tr.Warm(key)
		if tr.Persist(key) {
			return appendInt(out, 1)
		}
		return appendInt(out, 0)
	case "LPUSH", "RPUSH":
		if len(args) < 3 {
			return appendError(out, "wrong number of arguments")
		}
		vals := args[2:]
		var n int
		err := sh.rmw(key, func() error {
			var err error
			if cmd == "LPUSH" {
				n, err = eng.LPush(key, vals...)
			} else {
				n, err = eng.RPush(key, vals...)
			}
			if err != nil {
				return err
			}
			return sh.propagateCollection(key)
		})
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, int64(n))
	case "LPOP", "RPOP":
		var v []byte
		err := sh.rmw(key, func() error {
			var err error
			if cmd == "LPOP" {
				v, err = eng.LPop(key)
			} else {
				v, err = eng.RPop(key)
			}
			if err != nil {
				return err
			}
			return sh.propagateCollection(key)
		})
		if notFoundish(err) {
			return appendBulk(out, nil)
		}
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendBulk(out, v)
	case "LLEN":
		tr.Warm(key)
		n, err := eng.LLen(key)
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, int64(n))
	case "LRANGE":
		if len(args) != 4 {
			return appendError(out, "wrong number of arguments for 'lrange'")
		}
		start, err1 := strconv.Atoi(string(args[2]))
		stop, err2 := strconv.Atoi(string(args[3]))
		if err1 != nil || err2 != nil {
			return appendError(out, "value is not an integer or out of range")
		}
		tr.Warm(key)
		vals, err := eng.LRange(key, start, stop)
		if err != nil {
			return appendError(out, err.Error())
		}
		out = appendArrayLen(out, len(vals))
		for _, v := range vals {
			out = appendBulk(out, v)
		}
		return out
	case "SADD", "SREM":
		if len(args) < 3 {
			return appendError(out, "wrong number of arguments")
		}
		members := make([]string, len(args)-2)
		for i, a := range args[2:] {
			members[i] = string(a)
		}
		var n int
		err := sh.rmw(key, func() error {
			var err error
			if cmd == "SADD" {
				n, err = eng.SAdd(key, members...)
			} else {
				n, err = eng.SRem(key, members...)
			}
			if err != nil || n == 0 {
				return err // n == 0: nothing changed, skip the storage write
			}
			return sh.propagateCollection(key)
		})
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, int64(n))
	case "SISMEMBER":
		if len(args) != 3 {
			return appendError(out, "wrong number of arguments for 'sismember'")
		}
		tr.Warm(key)
		ok, err := eng.SIsMember(key, string(args[2]))
		if err != nil {
			return appendError(out, err.Error())
		}
		if ok {
			return appendInt(out, 1)
		}
		return appendInt(out, 0)
	case "SCARD":
		tr.Warm(key)
		n, err := eng.SCard(key)
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, int64(n))
	case "SMEMBERS":
		tr.Warm(key)
		members, err := eng.SMembers(key)
		if err != nil {
			return appendError(out, err.Error())
		}
		out = appendArrayLen(out, len(members))
		for _, m := range members {
			out = appendBulkString(out, m)
		}
		return out
	case "ZADD":
		if len(args) != 4 {
			return appendError(out, "wrong number of arguments for 'zadd'")
		}
		score, err := strconv.ParseFloat(string(args[2]), 64)
		if err != nil {
			return appendError(out, "value is not a valid float")
		}
		member := string(args[3])
		var isNew bool
		rerr := sh.rmw(key, func() error {
			var err error
			isNew, err = eng.ZAdd(key, member, score)
			if err != nil {
				return err
			}
			// Propagate even when !isNew: the score may have changed.
			return sh.propagateCollection(key)
		})
		if rerr != nil {
			return appendError(out, rerr.Error())
		}
		if isNew {
			return appendInt(out, 1)
		}
		return appendInt(out, 0)
	case "ZSCORE":
		if len(args) != 3 {
			return appendError(out, "wrong number of arguments for 'zscore'")
		}
		tr.Warm(key)
		sc, err := eng.ZScore(key, string(args[2]))
		if notFoundish(err) {
			return appendBulk(out, nil)
		}
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendBulkString(out, strconv.FormatFloat(sc, 'g', -1, 64))
	case "ZREM":
		if len(args) != 3 {
			return appendError(out, "wrong number of arguments for 'zrem'")
		}
		member := string(args[2])
		var removed bool
		err := sh.rmw(key, func() error {
			var err error
			removed, err = eng.ZRem(key, member)
			if err != nil || !removed {
				return err
			}
			return sh.propagateCollection(key)
		})
		if err != nil {
			return appendError(out, err.Error())
		}
		if removed {
			return appendInt(out, 1)
		}
		return appendInt(out, 0)
	case "ZCARD":
		tr.Warm(key)
		n, err := eng.ZCard(key)
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, int64(n))
	case "ZRANGE":
		if len(args) < 4 {
			return appendError(out, "wrong number of arguments for 'zrange'")
		}
		start, err1 := strconv.Atoi(string(args[2]))
		stop, err2 := strconv.Atoi(string(args[3]))
		if err1 != nil || err2 != nil {
			return appendError(out, "value is not an integer or out of range")
		}
		withScores := len(args) == 5 && strings.EqualFold(string(args[4]), "WITHSCORES")
		tr.Warm(key)
		members, err := eng.ZRange(key, start, stop)
		if err != nil {
			return appendError(out, err.Error())
		}
		n := len(members)
		if withScores {
			n *= 2
		}
		out = appendArrayLen(out, n)
		for _, m := range members {
			out = appendBulkString(out, m.Member)
			if withScores {
				out = appendBulkString(out, strconv.FormatFloat(m.Score, 'g', -1, 64))
			}
		}
		return out
	case "HSET":
		if len(args) != 4 {
			return appendError(out, "wrong number of arguments for 'hset'")
		}
		field := string(args[2])
		var isNew bool
		err := sh.rmw(key, func() error {
			var err error
			isNew, err = eng.HSet(key, field, args[3])
			if err != nil {
				return err
			}
			// Propagate even when !isNew: the field value changed.
			return sh.propagateCollection(key)
		})
		if err != nil {
			return appendError(out, err.Error())
		}
		if isNew {
			return appendInt(out, 1)
		}
		return appendInt(out, 0)
	case "HGET":
		if len(args) != 3 {
			return appendError(out, "wrong number of arguments for 'hget'")
		}
		tr.Warm(key)
		v, err := eng.HGet(key, string(args[2]))
		if notFoundish(err) {
			return appendBulk(out, nil)
		}
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendBulk(out, v)
	case "HDEL":
		if len(args) < 3 {
			return appendError(out, "wrong number of arguments for 'hdel'")
		}
		fields := make([]string, len(args)-2)
		for i, a := range args[2:] {
			fields[i] = string(a)
		}
		var n int
		err := sh.rmw(key, func() error {
			var err error
			n, err = eng.HDel(key, fields...)
			if err != nil || n == 0 {
				return err // nothing removed: skip the storage write
			}
			return sh.propagateCollection(key)
		})
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, int64(n))
	case "HLEN":
		tr.Warm(key)
		n, err := eng.HLen(key)
		if err != nil {
			return appendError(out, err.Error())
		}
		return appendInt(out, int64(n))
	case "HGETALL":
		tr.Warm(key)
		fields, err := eng.HGetAll(key)
		if err != nil {
			return appendError(out, err.Error())
		}
		out = appendArrayLen(out, len(fields)*2)
		for _, f := range fields {
			out = appendBulkString(out, f.Field)
			out = appendBulk(out, f.Value)
		}
		return out
	default:
		return appendError(out, "unknown command")
	}
}
