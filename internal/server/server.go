// Package server implements TierBase's wire protocol front end: a
// Redis-compatible (RESP2) TCP server over one data node: a striped engine
// and its tiered store behind one elastic gate (paper §3: "Initially
// Redis-compatible ... TierBase clients, compatible with native Redis
// clients"). The wire format itself is internal/resp.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/cluster"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/metrics"
	"tierbase/internal/resp"
)

// Server is the TierBase RESP server. It is configured by Config (see
// config.go). This file is the server's lifecycle and its connections'; the
// command set is commands.go, INFO is info.go, replication/cluster
// behavior replication.go.
//
// A process serves one data node: an engine, the tiered store every command
// reaches it through (cache-only when the deployment has no storage tier)
// and the elastic gate keyed commands run through. The engine's lock
// stripes are the node's only sharding.
type Server struct {
	opts   Config
	ln     net.Listener
	eng    *engine.Engine
	tiered *cache.Tiered
	pool   *elastic.Pool
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
	eng := engine.New(opts.EngineOptions)
	tr, err := factory(eng)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &Server{
		opts:       opts,
		ln:         ln,
		eng:        eng,
		tiered:     tr,
		pool:       elastic.NewPool(opts.Pool),
		conns:      make(map[net.Conn]*conn),
		stopCh:     make(chan struct{}),
		Latency:    metrics.NewHistogram(),
		Throughput: metrics.NewMeter(),
	}
	if opts.Replication.Enabled() {
		s.repl = newServerRepl(s, opts.Replication)
		tr.SetSink(s.repl)
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

// --- connection handling ---

// conn is one client connection's state: the command reader (pooled parse
// buffers) and the reply output buffer. Commands execute on the
// connection's own goroutine, one at a time, so that goroutine owns every
// buffer here throughout.
type conn struct {
	srv        *Server
	nc         net.Conn
	br         *bufio.Reader // what cr parses; a hijacker (SYNC) reads its frames from it
	cr         *resp.Reader
	out        []byte
	held       []heldReply // semi-sync replies in out that wait for replica acks (settleHeld)
	cmdScratch [16]byte
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

// execute runs a keyed command inside the node's gate, appending the reply
// to the connection's output buffer. What the table says of the command is
// applied here: a mutate handler runs inside Tiered.Mutate, a warm one finds
// its key faulted in, and an error from either replaces whatever the
// handler appended.
func (c *conn) execute(cmd *command, args [][]byte) {
	s := c.srv
	key := string(args[1])
	mark := len(c.out)
	var err error
	if cmd.mutate != nil {
		err = s.tiered.Mutate(key, func() (bool, error) {
			out, changed, err := cmd.mutate(s.eng, key, args, c.out)
			c.out = out
			return changed, err
		})
	} else {
		if cmd.warm {
			s.tiered.Warm(key)
		}
		c.out, err = cmd.keyed(s, key, args, c.out)
	}
	if err != nil {
		c.out = resp.AppendError(c.out[:mark], err.Error())
	}
}

// newConn builds the serving state of one connection.
func newConn(s *Server, nc net.Conn) *conn {
	br := bufio.NewReaderSize(nc, 16<<10)
	return &conn{srv: s, nc: nc, br: br, cr: resp.NewReader(br, resp.MaxArgs, resp.MaxBulkLen)}
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
		c := newConn(s, nc)
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
			if len(c.held) > 0 {
				s.repl.settleHeld(c)
			}
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
			if len(c.held) > 0 {
				s.repl.settleHeld(c)
			}
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

// dispatch runs one command, appending its reply to c.out. It is the only
// reader of the command table (commands.go): look the name up, check the
// argument count, pass a write through the three write gates — the memory
// watermark, the replica's redirect, the semi-sync reply hold — then route.
func (s *Server) dispatch(c *conn, args [][]byte) {
	if len(args) == 0 {
		c.out = resp.AppendError(c.out, "empty command")
		return
	}
	cmd := lookupCommand(args[0], &c.cmdScratch)
	if cmd == nil {
		c.out = appendUnknownCommand(c.out, args[0])
		return
	}
	if !cmd.arityOK(len(args)) {
		c.out = appendArityError(c.out, cmd)
		return
	}
	if cmd.write {
		// Watermark gate: above the high watermark writes fail fast with
		// the typed retryable -OVERLOADED while reads keep serving.
		// Replication is exempt by construction — its commands are not
		// writes and the replica apply path doesn't pass through dispatch.
		if s.rejectWrites() {
			s.over.rejectedWrites.Add(1)
			c.out = resp.AppendRawError(c.out, overloadedReply)
			return
		}
		if s.repl != nil && s.repl.gateWrite(c, cmd, args) {
			return
		}
	}
	s.route(c, cmd, args)
}

// route executes a command: a keyless one directly, a keyed one, whether it
// names one key or many, once through the node's gate. Both run on the
// connection goroutine.
func (s *Server) route(c *conn, cmd *command, args [][]byte) {
	if cmd.keys == keysNone {
		cmd.conn(s, c, args)
		return
	}
	if err := s.pool.SubmitWait(func() { c.execute(cmd, args) }); err != nil {
		c.out = resp.AppendError(c.out, "server shutting down")
	}
}

// Shards returns the node's one engine, for measurement. It keeps its
// slice form because the ledger (benchmark/traced.go) reads Shards()[0].
func (s *Server) Shards() []*engine.Engine { return []*engine.Engine{s.eng} }

// Pools returns the node's one elastic gate, for measurement. It keeps its
// slice form because the ledger (benchmark/traced.go) reads Pools()[0].
func (s *Server) Pools() []*elastic.Pool { return []*elastic.Pool{s.pool} }

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

// Close stops accepting, closes connections, and shuts the node down.
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

// finishClose joins the background goroutines and shuts the node down.
// The tiered Close flushes all write-back dirty state to storage before
// returning.
func (s *Server) finishClose() {
	if s.repl != nil {
		// Stop replication before joining connection goroutines: hijacked
		// SYNC connections block in OpLog streams, which only close here
		// unblocks.
		s.repl.close()
	}
	s.wg.Wait()
	s.connWg.Wait()
	s.pool.Stop()
	s.tiered.Close()
}
