package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/client"
	"tierbase/internal/cluster"
	"tierbase/internal/engine"
	"tierbase/internal/metrics"
	"tierbase/internal/replication"
	"tierbase/internal/resp"
)

// Server-side replication: the network leg over the replication
// package's transport seam (paper §3's master→replica op streaming and
// §4.1.2's semi-synchronous acks).
//
// Masters: every mutation crosses the cache tier's OpSink seam into a
// sequenced OpLog (ReplicateSet/ReplicateDelete below, called under the
// key's RMW stripe lock so log order matches engine order per key). A
// replica connects as a normal RESP client, sends
// `SYNC <lastApplied> <nodeID>`, and the connection is hijacked: the
// master answers `+CONTINUE` (incremental, the log still covers the
// replica's position) or `+FULLSYNC` (engine snapshot first), then
// streams length-prefixed op frames forever; cumulative acks ride back
// on the same socket into the AckTracker. With SemiSyncAcks > 0, the
// reply to a write is held until that many replicas acknowledged it: the
// connection keeps executing what is pipelined behind it and waits once,
// before it writes the window's replies (timeout → -NOREPLICAS in place
// of each reply still unacknowledged; those writes are applied locally).
//
// Replicas: an applier loop dials the master, handshakes, applies the
// stream through the tiered store (the sink is inert while the role is
// replica), and mirrors each op into the local log with AppendAt — so a
// promoted replica continues the master's sequence numbers and surviving
// replicas can resume from it incrementally. Client writes are rejected
// with `-MOVED <slot> <masterAddr>` so routed clients refresh and follow.
//
// Robustness (see internal/replication/README.md): every frame write to
// a replica carries a deadline (WriteTimeout), full-sync snapshots
// stream in bounded chunks (SnapshotChunkBytes) with a flush per chunk,
// an idle link is kept provably alive by master pings answered with
// replica acks (KeepaliveInterval/ReadTimeout), replicas whose unacked
// backlog exceeds ShedBacklog are disconnected to re-sync later, and
// the replica applier redials with jittered exponential backoff.
// FLUSHALL/EXPIRE/PERSIST replicate as first-class ops (EXPIRE as an
// absolute deadline), and a full sync clears the replica's private
// storage tier along with its cache tier.
//
// Known gap (see ROADMAP.md): batch writes enter the log per stripe
// after commit, so a concurrent single-key RMW can order differently
// across stripes than on the master.

const (
	roleMaster int32 = iota
	roleReplica
)

// serverRepl owns a node's replication state and implements
// cache.OpSink.
type serverRepl struct {
	s   *Server
	cfg ReplicationConfig

	log  *replication.OpLog
	acks *replication.AckTracker

	role            atomic.Int32
	lastApplied     atomic.Uint64 // replica: last op applied from the master
	masterLinkUp    atomic.Bool
	reregister      atomic.Bool // role changed: refresh coordinator registration
	draining        atomic.Bool // graceful drain: stop (re-)registering
	fullSyncsServed atomic.Int64
	fullSyncsDone   atomic.Int64
	applyErrors     atomic.Int64
	laggardsShed    atomic.Int64     // sessions dropped for unacked backlog
	writeStall      metrics.MaxGauge // worst replication-frame write+flush, ns

	mu         sync.Mutex
	masterAddr string
	sessions   map[string]*replSession
	applier    *replApplier
	closed     bool

	stop chan struct{}
	wg   sync.WaitGroup
}

func newServerRepl(s *Server, cfg ReplicationConfig) *serverRepl {
	return &serverRepl{
		s:        s,
		cfg:      cfg,
		log:      replication.NewOpLog(cfg.LogCap),
		acks:     replication.NewAckTracker(),
		sessions: make(map[string]*replSession),
		stop:     make(chan struct{}),
	}
}

// start brings up the configured role and the coordinator heartbeat.
// Called once from Start after the node (and its sink) exists.
func (r *serverRepl) start() {
	if r.cfg.MasterAddr != "" {
		r.role.Store(roleReplica)
		r.mu.Lock()
		r.masterAddr = r.cfg.MasterAddr
		r.mu.Unlock()
		r.startApplier(r.cfg.MasterAddr)
	}
	if r.cfg.CoordinatorAddr != "" {
		r.wg.Add(1)
		go r.heartbeatLoop()
	}
}

// close stops the applier, all replica sessions, the heartbeat, and the
// op log (unblocking hijacked SYNC connections).
func (r *serverRepl) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	ap := r.applier
	r.applier = nil
	sess := make([]*replSession, 0, len(r.sessions))
	for _, s := range r.sessions {
		sess = append(sess, s)
	}
	r.mu.Unlock()
	close(r.stop)
	if ap != nil {
		ap.close()
	}
	for _, s := range sess {
		s.close()
	}
	r.log.Close()
	r.wg.Wait()
}

func (r *serverRepl) isReplica() bool { return r.role.Load() == roleReplica }

func (r *serverRepl) currentMasterAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.masterAddr
}

func (r *serverRepl) advertiseAddr() string {
	if r.cfg.AdvertiseAddr != "" {
		return r.cfg.AdvertiseAddr
	}
	return r.s.Addr()
}

// --- OpSink (the cache tier reports mutations here) ---

// ReplicateSet appends a store op to the log. Called under the key's RMW
// stripe lock; val aliases a caller buffer and is copied by Append.
// Inert on replicas: the applier mirrors the master's stream itself.
func (r *serverRepl) ReplicateSet(key string, val []byte, encoded bool) {
	if r.isReplica() {
		return
	}
	kind := replication.OpSet
	if encoded {
		kind = replication.OpSetEncoded
	}
	r.log.Append(kind, key, val)
}

// ReplicateDelete appends a delete op to the log.
func (r *serverRepl) ReplicateDelete(key string) {
	if r.isReplica() {
		return
	}
	r.log.Append(replication.OpDel, key, nil)
}

// ReplicateExpire appends a TTL-set op. The value is the absolute
// UnixNano deadline in decimal: a replica applying the op late still
// expires the key at the master's wall-clock instant, not a relative
// duration drifted by replication lag.
func (r *serverRepl) ReplicateExpire(key string, at int64) {
	if r.isReplica() {
		return
	}
	r.log.Append(replication.OpExpire, key, strconv.AppendInt(nil, at, 10))
}

// ReplicatePersist appends a TTL-clear op.
func (r *serverRepl) ReplicatePersist(key string) {
	if r.isReplica() {
		return
	}
	r.log.Append(replication.OpPersist, key, nil)
}

// ReplicateFlushAll appends a whole-keyspace clear.
func (r *serverRepl) ReplicateFlushAll() {
	if r.isReplica() {
		return
	}
	r.log.Append(replication.OpFlushAll, "", nil)
}

// --- role-aware dispatch ---

// gateWrite is the replication layer's say over a write command, after the
// overload gate and before it executes. On a replica the write is refused
// with -MOVED; on a semi-sync master it executes here and its reply is
// held for the acks (settleHeld). Returns true when the command was fully
// handled; false lets dispatch execute it.
func (r *serverRepl) gateWrite(c *conn, cmd *command, args [][]byte) bool {
	if r.isReplica() {
		// Role-aware rejection: point the client at the master. The slot
		// comes from the first key so routed clients can cross-check; the
		// address is what matters for following the redirect.
		slot := 0
		if cmd.keys != keysNone {
			slot = cluster.SlotFor(string(args[1]))
		}
		c.out = resp.AppendRawError(c.out, fmt.Sprintf("MOVED %d %s", slot, r.currentMasterAddr()))
		return true
	}
	if r.cfg.SemiSyncAcks > 0 {
		mark := len(c.out)
		r.s.route(c, cmd, args)
		if len(c.out) == mark || c.out[mark] != '-' { // a failed write has nothing to wait for
			// The log head, not just this command's ops: conservative under
			// concurrency but always covers this write.
			c.held = append(c.held, heldReply{start: mark, end: len(c.out), seq: r.log.Seq()})
		}
		return true
	}
	return false
}

// heldReply is a semi-sync write's reply, in c.out but not to be sent until
// SemiSyncAcks replicas acknowledged the log position the write produced.
type heldReply struct {
	start, end int    // the reply is c.out[start:end]
	seq        uint64 // the log head when the write returned
}

// settleHeld waits, once, until SemiSyncAcks replicas acknowledged every
// write whose reply c.out holds: acks are cumulative and a connection's
// sequences only rise, so the last one covers them all. serveConn calls it
// immediately before it sends c.out. On timeout each reply whose sequence
// the replicas have still not reached is replaced with -NOREPLICAS: that
// write is applied locally, and was visible to other connections from the
// moment it executed, but the client must treat it as unacknowledged (it
// may or may not survive a failover). Replies to reads and to failed
// writes in the same window go out as they are.
func (r *serverRepl) settleHeld(c *conn) {
	held := c.held
	c.held = c.held[:0]
	need := r.cfg.SemiSyncAcks
	if r.acks.Wait(held[len(held)-1].seq, need, r.cfg.AckTimeout) == nil {
		return
	}
	refusal := fmt.Sprintf("NOREPLICAS write not acknowledged by %d replica(s) within %v", need, r.cfg.AckTimeout)
	out := make([]byte, 0, len(c.out))
	sent := 0 // c.out[:sent] is in out
	for _, h := range held {
		if r.acks.Reached(h.seq, need) {
			continue
		}
		out = append(out, c.out[sent:h.start]...)
		out = resp.AppendRawError(out, refusal)
		sent = h.end
	}
	c.out = append(out, c.out[sent:]...)
}

// cmdReplicaof serves REPLICAOF host port | NO ONE — the coordinator's
// promotion/re-point push, also available to operators.
func (r *serverRepl) cmdReplicaof(c *conn, args [][]byte) {
	host, port := string(args[1]), string(args[2])
	if strings.EqualFold(host, "no") && strings.EqualFold(port, "one") {
		r.promote()
		c.out = resp.AppendSimple(c.out, "OK")
		return
	}
	if _, err := strconv.Atoi(port); err != nil {
		c.out = resp.AppendError(c.out, "invalid replicaof port")
		return
	}
	r.follow(net.JoinHostPort(host, port))
	c.out = resp.AppendSimple(c.out, "OK")
}

// promote turns a replica into a master: stop applying, flip the role,
// keep the mirrored log so surviving replicas resume incrementally from
// the same sequence numbers.
func (r *serverRepl) promote() {
	r.mu.Lock()
	ap := r.applier
	r.applier = nil
	r.mu.Unlock()
	if ap != nil {
		ap.close() // waits: no apply is in flight after this
	}
	r.role.Store(roleMaster)
	r.mu.Lock()
	r.masterAddr = ""
	r.mu.Unlock()
	r.masterLinkUp.Store(false)
	r.reregister.Store(true)
}

// follow (re)points this node at a master, restarting the applier. A
// master demoting drops its replica sessions — they must resync from the
// new master.
func (r *serverRepl) follow(addr string) {
	r.mu.Lock()
	ap := r.applier
	r.applier = nil
	sess := make([]*replSession, 0, len(r.sessions))
	for _, s := range r.sessions {
		sess = append(sess, s)
	}
	r.mu.Unlock()
	if ap != nil {
		ap.close()
	}
	for _, s := range sess {
		s.close()
	}
	r.role.Store(roleReplica)
	r.mu.Lock()
	r.masterAddr = addr
	r.mu.Unlock()
	r.reregister.Store(true)
	r.startApplier(addr)
}

// cmdCluster serves the data-node CLUSTER subcommands (identity and
// routing introspection; the table itself lives on the coordinator).
func (r *serverRepl) cmdCluster(c *conn, args [][]byte) {
	sub := strings.ToUpper(string(args[1]))
	switch sub {
	case "MYID":
		c.out = resp.AppendBulkString(c.out, r.cfg.NodeID)
	case "ROLE":
		role := "master"
		if r.isReplica() {
			role = "replica"
		}
		c.out = resp.AppendSimple(c.out, role)
	case "SLOT":
		if len(args) != 3 {
			c.out = resp.AppendError(c.out, "CLUSTER SLOT needs a key")
			return
		}
		c.out = resp.AppendInt(c.out, int64(cluster.SlotFor(string(args[2]))))
	default:
		c.out = resp.AppendError(c.out, "unknown CLUSTER subcommand '"+sub+"'")
	}
}

// --- master side: serving a replica's SYNC ---

// replSession is one attached replica connection on a master.
type replSession struct {
	id     string
	nc     net.Conn
	stream *replication.Stream
	// wmu serializes frame writes: the op-stream loop and the keepalive
	// ticker share one bufio.Writer.
	wmu sync.Mutex
}

func (s *replSession) close() {
	s.stream.Cancel()
	s.nc.Close()
}

func (r *serverRepl) addSession(sess *replSession) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	old := r.sessions[sess.id]
	r.sessions[sess.id] = sess
	r.mu.Unlock()
	if old != nil {
		old.close() // a reconnect replaces the stale session
	}
	return true
}

func (r *serverRepl) removeSession(sess *replSession) {
	r.mu.Lock()
	if r.sessions[sess.id] == sess {
		delete(r.sessions, sess.id)
	}
	r.mu.Unlock()
}

// cmdSync validates the handshake and schedules the connection hijack;
// serveReplica (below) runs on the connection goroutine and owns the
// socket until the replica detaches.
func (r *serverRepl) cmdSync(c *conn, args [][]byte) {
	if r.isReplica() {
		c.out = resp.AppendError(c.out, "cannot SYNC from a replica")
		return
	}
	after, err := strconv.ParseUint(string(args[1]), 10, 64)
	if err != nil {
		c.out = resp.AppendError(c.out, "invalid SYNC position")
		return
	}
	nodeID := string(args[2])
	if nodeID == "" {
		c.out = resp.AppendError(c.out, "SYNC requires a node id")
		return
	}
	c.hijack = func() { r.serveReplica(c, after, nodeID) }
}

// serveReplica streams the op log to one replica. The status line tells
// the replica whether its position still resumes (+CONTINUE) or a
// snapshot precedes the stream (+FULLSYNC). The snapshot stream is
// opened at the current head BEFORE the engine is walked, and every op
// carries its key's full resulting state, so replaying the overlap over
// the (possibly newer) snapshot converges.
//
// Robustness: every write toward the replica is bounded by WriteTimeout
// (a stalled socket errors out instead of blocking the session forever);
// the snapshot walk materializes at most SnapshotChunkBytes per engine
// lock acquisition and flushes each chunk before building the next, so a
// slow link bounds the master's buffering, not its memory; a keepalive
// ticker pings the replica (and sheds it if its unacked backlog exceeds
// ShedBacklog); and the ack reader enforces ReadTimeout — with pings
// answered by acks, a healthy link always has a frame in flight.
func (r *serverRepl) serveReplica(c *conn, after uint64, nodeID string) {
	nc := c.nc
	bw := bufio.NewWriterSize(nc, 64<<10)
	wt := r.cfg.WriteTimeout

	var stream *replication.Stream
	var err error
	full := false
	snapSeq := uint64(0)
	if after <= r.log.Seq() {
		stream, err = r.log.Stream(after)
	} else {
		// The replica claims a future position: divergent history (an old
		// master rejoining with unreplicated writes). Snapshot it.
		err = replication.ErrSeqGap
	}
	if err != nil {
		full = true
		snapSeq = r.log.Seq()
		if stream, err = r.log.Stream(snapSeq); err != nil {
			return // log closed (server shutting down)
		}
	}
	defer stream.Cancel()

	// deadlineFlush bounds one buffered write burst; the stall gauge
	// records the worst case (the master-side write stall a slow replica
	// link can induce).
	deadlineFlush := func() error {
		start := time.Now()
		nc.SetWriteDeadline(start.Add(wt))
		err := bw.Flush()
		r.writeStall.Observe(time.Since(start).Nanoseconds())
		return err
	}

	if full {
		r.fullSyncsServed.Add(1)
		if _, err := bw.Write(resp.AppendSimple(nil, "FULLSYNC")); err != nil {
			return
		}
		if err := replication.WriteSnapBegin(bw, snapSeq); err != nil {
			return
		}
		var werr error
		ferr := r.s.eng.ForEachEncodedChunked(r.cfg.SnapshotChunkBytes,
			func(chunk []engine.SnapEntry) bool {
				for _, e := range chunk {
					if werr = replication.WriteSnapEntry(bw, e.Key, e.Val, e.Encoded); werr != nil {
						return false
					}
				}
				werr = deadlineFlush()
				return werr == nil
			})
		if werr != nil || ferr != nil {
			return
		}
		if err := replication.WriteSnapEnd(bw, snapSeq); err != nil {
			return
		}
	} else {
		if _, err := bw.Write(resp.AppendSimple(nil, "CONTINUE")); err != nil {
			return
		}
	}
	if err := deadlineFlush(); err != nil {
		return
	}

	sess := &replSession{id: nodeID, nc: nc, stream: stream}
	if !r.addSession(sess) {
		return
	}
	defer r.removeSession(sess)
	r.acks.Attach(nodeID)
	defer r.acks.Detach(nodeID)

	// Cumulative acks (and ping answers) ride back on the same socket; a
	// read error — including ReadTimeout with no frame, which a healthy
	// replica never hits while it answers pings — means the replica is
	// gone: cancel the stream to unblock the writer.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		br := c.br
		for {
			nc.SetReadDeadline(time.Now().Add(r.cfg.ReadTimeout))
			f, err := replication.ReadFrame(br)
			if err != nil {
				stream.Cancel()
				nc.Close()
				return
			}
			if f.IsAck() {
				r.acks.Ack(nodeID, f.Seq)
			}
		}
	}()

	// Keepalive + laggard shedding: ping with the current log head every
	// KeepaliveInterval (the replica answers with a cumulative ack, so an
	// idle link still proves liveness and refreshes both read deadlines),
	// and disconnect a replica whose unacked backlog outgrew ShedBacklog
	// — it re-syncs later instead of pinning master-side buffers.
	kaStop := make(chan struct{})
	kaDone := make(chan struct{})
	go func() {
		defer close(kaDone)
		tick := time.NewTicker(r.cfg.KeepaliveInterval)
		defer tick.Stop()
		for {
			select {
			case <-kaStop:
				return
			case <-tick.C:
			}
			if r.cfg.ShedBacklog > 0 {
				if acked, ok := r.acks.Acked(nodeID); ok {
					if head := r.log.Seq(); head > acked && head-acked > uint64(r.cfg.ShedBacklog) {
						r.laggardsShed.Add(1)
						stream.Cancel()
						nc.Close()
						return
					}
				}
			}
			sess.wmu.Lock()
			err := replication.WritePing(bw, r.log.Seq())
			if err == nil {
				err = deadlineFlush()
			}
			sess.wmu.Unlock()
			if err != nil {
				stream.Cancel()
				nc.Close()
				return
			}
		}
	}()
	defer func() {
		close(kaStop)
		nc.Close()
		<-kaDone
		<-ackDone
	}()

	var buf []replication.Op
	for {
		ops, err := stream.Recv(buf)
		if err != nil {
			return
		}
		buf = ops
		sess.wmu.Lock()
		for _, op := range ops {
			if err := replication.WriteOp(bw, op); err != nil {
				sess.wmu.Unlock()
				return
			}
		}
		err = deadlineFlush()
		sess.wmu.Unlock()
		if err != nil {
			return
		}
	}
}

// --- replica side: the applier loop ---

// replApplier is a replica's connection to its master: dial, handshake,
// apply the stream, ack; redial with backoff on any failure.
type replApplier struct {
	r          *serverRepl
	masterAddr string
	stop       chan struct{}
	mu         sync.Mutex
	conn       net.Conn
	stopped    bool
	wg         sync.WaitGroup
}

func (r *serverRepl) startApplier(addr string) {
	a := &replApplier{r: r, masterAddr: addr, stop: make(chan struct{})}
	r.mu.Lock()
	r.applier = a
	r.mu.Unlock()
	a.wg.Add(1)
	go a.run()
}

// close stops the loop and waits for it: after close returns, no apply
// is in flight (promote relies on this before flipping the role).
func (a *replApplier) close() {
	a.mu.Lock()
	if !a.stopped {
		a.stopped = true
		close(a.stop)
		if a.conn != nil {
			a.conn.Close()
		}
	}
	a.mu.Unlock()
	a.wg.Wait()
}

func (a *replApplier) run() {
	defer a.wg.Done()
	// Jittered exponential redial: repeated failures space out up to 2s,
	// and the jitter keeps a fleet of replicas that lost the same master
	// from redialing it in lockstep when it comes back.
	bo := &cluster.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		if a.syncOnce() {
			bo.Reset() // the session was established; restart fresh
		}
		a.r.masterLinkUp.Store(false)
		select {
		case <-a.stop:
			return
		case <-time.After(bo.Next()):
		}
	}
}

// setConn registers the live socket so close can sever a blocked read.
func (a *replApplier) setConn(nc net.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return false
	}
	a.conn = nc
	return true
}

// dial resolves the master-dial seam: the configured Dialer (fault
// injection wraps the socket here) or plain TCP.
func (a *replApplier) dial() (net.Conn, error) {
	if d := a.r.cfg.Dialer; d != nil {
		return d(a.masterAddr, 2*time.Second)
	}
	return net.DialTimeout("tcp", a.masterAddr, 2*time.Second)
}

// syncOnce runs one master session: handshake from the local position,
// install a snapshot if offered, then apply-and-ack until the connection
// dies or the applier stops. It reports whether a session was
// established (the redial backoff resets on true).
//
// Liveness is symmetric to the master side: every frame read is bounded
// by ReadTimeout (the master pings at least every KeepaliveInterval, so
// a healthy idle link never starves the deadline), pings are answered
// with a cumulative ack, and every ack write is bounded by WriteTimeout.
func (a *replApplier) syncOnce() bool {
	r := a.r
	nc, err := a.dial()
	if err != nil {
		return false
	}
	defer nc.Close()
	if !a.setConn(nc) {
		return false
	}
	rt, wt := r.cfg.ReadTimeout, r.cfg.WriteTimeout
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)
	nc.SetWriteDeadline(time.Now().Add(wt))
	if _, err := nc.Write(resp.AppendCommand(nil, "SYNC", strconv.FormatUint(r.lastApplied.Load(), 10), r.cfg.NodeID)); err != nil {
		return false
	}
	nc.SetReadDeadline(time.Now().Add(rt))
	status, err := resp.NewReader(br, resp.MaxArgs, resp.MaxBulkLen).ReadReply()
	if err != nil {
		return false
	}
	switch status {
	case "CONTINUE":
	case "FULLSYNC":
		r.fullSyncsDone.Add(1)
		if !a.readSnapshot(nc, br) {
			return false
		}
	default:
		return false // -ERR (e.g. the target is itself a replica): back off, retry
	}
	r.masterLinkUp.Store(true)
	ack := func(seq uint64) bool {
		nc.SetWriteDeadline(time.Now().Add(wt))
		return replication.WriteAck(bw, seq) == nil && bw.Flush() == nil
	}
	// The initial ack registers this replica's position with the master
	// before any new op arrives (semi-sync counts attached replicas).
	if !ack(r.lastApplied.Load()) {
		return true
	}
	for {
		nc.SetReadDeadline(time.Now().Add(rt))
		f, err := replication.ReadFrame(br)
		if err != nil {
			return true
		}
		if f.IsPing() {
			// Answer with the cumulative position: liveness both ways on
			// an idle link, and the master's shed check stays current.
			if !ack(r.lastApplied.Load()) {
				return true
			}
			continue
		}
		if !f.IsOp() {
			continue
		}
		op := f.Op
		r.applyOp(op)
		if r.log.AppendAt(op) != nil {
			// A mirrored-log gap should be impossible; restart the window
			// at this op so the log stays internally consistent (future
			// subscribers behind this point full-sync).
			r.log.Reset(op.Seq)
		}
		r.lastApplied.Store(op.Seq)
		if br.Buffered() == 0 {
			// Batch boundary: ack the whole drained window in one frame.
			if !ack(op.Seq) {
				return true
			}
		}
	}
}

// readSnapshot installs a full-sync snapshot: clear the node — cache tier
// AND private storage tier, via the tiered store's FlushAll — then
// apply every entry and reset the mirrored log to the snapshot position.
// Clearing storage matters: a key deleted on the master while this
// replica was away must not resurrect from the replica's stale storage
// after promotion. Each frame read is bounded by ReadTimeout (the
// master flushes at least every SnapshotChunkBytes, so a healthy link
// always delivers in time).
func (a *replApplier) readSnapshot(nc net.Conn, br *bufio.Reader) bool {
	r := a.r
	rt := r.cfg.ReadTimeout
	started := false
	for {
		nc.SetReadDeadline(time.Now().Add(rt))
		f, err := replication.ReadFrame(br)
		if err != nil {
			return false
		}
		switch {
		case f.IsSnapBegin():
			r.flushAll()
			started = true
		case f.IsSnapEntry():
			if !started {
				return false
			}
			r.applyEntry(f.Key, f.Val, f.Encoded)
		case f.IsSnapEnd():
			if !started {
				return false
			}
			r.lastApplied.Store(f.Seq)
			r.log.Reset(f.Seq)
			return true
		default:
			return false
		}
	}
}

// applyOp applies one streamed op through the node's tiered store (the
// sink is inert on replicas, so nothing re-enters the log).
func (r *serverRepl) applyOp(op replication.Op) {
	tiered := r.s.tiered
	switch op.Kind {
	case replication.OpSet:
		r.applyEntry(op.Key, op.Val, false)
	case replication.OpSetEncoded:
		r.applyEntry(op.Key, op.Val, true)
	case replication.OpDel:
		if _, err := tiered.BatchDelete([]string{op.Key}); err != nil {
			r.applyErrors.Add(1)
		}
	case replication.OpExpire:
		at, err := strconv.ParseInt(string(op.Val), 10, 64)
		if err != nil {
			r.applyErrors.Add(1)
			return
		}
		tiered.ExpireAt(op.Key, at)
	case replication.OpPersist:
		tiered.Persist(op.Key)
	case replication.OpFlushAll:
		r.flushAll()
	}
}

// flushAll clears the node through its tiered store (a replicated
// FLUSHALL, or the start of a full-sync snapshot).
func (r *serverRepl) flushAll() {
	if err := r.s.tiered.FlushAll(); err != nil {
		r.applyErrors.Add(1)
	}
}

func (r *serverRepl) applyEntry(key string, val []byte, encoded bool) {
	s := r.s
	var err error
	if encoded {
		err = s.tiered.Mutate(key, func() (bool, error) {
			err := s.eng.LoadEncoded(key, val)
			return err == nil, err
		})
	} else {
		err = s.tiered.Set(key, val)
	}
	if err != nil {
		r.applyErrors.Add(1)
	}
}

// --- coordinator heartbeat ---

// heartbeatLoop registers the node with the coordinator and heartbeats
// every HeartbeatInterval. Registration refreshes on role changes (the
// reregister flag) and when the coordinator forgets us (-UNKNOWNNODE,
// e.g. a coordinator restart).
func (r *serverRepl) heartbeatLoop() {
	defer r.wg.Done()
	var cc *client.Client
	defer func() {
		if cc != nil {
			cc.Close()
		}
	}()
	registered := false
	// An unreachable coordinator backs off with jitter instead of
	// hammering it every HeartbeatInterval — the thundering-herd guard
	// for a coordinator restart with a whole fleet re-registering.
	bo := &cluster.Backoff{Base: r.cfg.HeartbeatInterval, Max: 8 * r.cfg.HeartbeatInterval}
	for {
		ok := true
		if cc == nil || cc.Err() != nil {
			if cc != nil {
				cc.Close()
			}
			cc = nil
			if c, err := client.Dial(r.cfg.CoordinatorAddr); err == nil {
				cc = c
				registered = false
			} else {
				ok = false
			}
		}
		if cc != nil {
			if r.reregister.Swap(false) {
				registered = false
			}
			if r.draining.Load() {
				// Graceful drain deregistered this node; don't re-register
				// when the coordinator answers -UNKNOWNNODE to a straggling
				// heartbeat.
				ok = true
			} else if !registered {
				role, masterAddr := "master", "-"
				if r.isReplica() {
					role = "replica"
					masterAddr = r.currentMasterAddr()
				}
				if _, err := cc.Do("CLUSTER", "REGISTER", r.cfg.NodeID, r.advertiseAddr(), role, masterAddr); err == nil {
					registered = true
				} else {
					ok = false
				}
			} else if _, err := cc.Do("CLUSTER", "HEARTBEAT", r.cfg.NodeID); err != nil {
				if strings.Contains(err.Error(), "UNKNOWNNODE") {
					registered = false
				}
			}
		}
		wait := r.cfg.HeartbeatInterval
		if ok {
			bo.Reset()
		} else {
			wait = bo.Next()
		}
		select {
		case <-r.stop:
			return
		case <-time.After(wait):
		}
	}
}

// deregister removes this node from the coordinator's routing table —
// the first step of a graceful drain, so clients re-route before the
// listener closes. Best-effort (a dead coordinator will fail the node
// over anyway) on a fresh connection: the heartbeat loop owns its own.
// Also marks the node draining so a straggling heartbeat doesn't
// re-register it.
func (r *serverRepl) deregister() {
	r.draining.Store(true)
	if r.cfg.CoordinatorAddr == "" {
		return
	}
	cc, err := client.Dial(r.cfg.CoordinatorAddr)
	if err != nil {
		return
	}
	defer cc.Close()
	cc.Do("CLUSTER", "DEREGISTER", r.cfg.NodeID)
}
