package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"tierbase/internal/resp"
)

// maxRetainedOut caps the write buffer kept across drain windows, so one
// huge value doesn't pin its buffer forever.
const maxRetainedOut = 1 << 20

// ErrClosed is the sticky error installed by Close: calls made after (or
// racing) Close fail with it instead of hanging on a dead connection.
var ErrClosed = errors.New("client: closed")

// callKind classifies a queued call for drain-window coalescing.
type callKind uint8

const (
	kindOther callKind = iota // written verbatim
	kindGet                   // typed Get: always rides the window's MGET
	kindSet                   // typed Set: may fold into an MSET
)

// call is one caller-visible request — one or more commands plus the
// rendezvous the caller blocks on. Pipeline enqueues one call carrying N
// commands so its internal order survives the mux untouched.
type call struct {
	kind    callKind
	cmds    [][]string
	replies []interface{}
	errs    []error
	left    int32 // undelivered replies; done closes at zero
	done    chan struct{}
}

func newCall(kind callKind, cmds [][]string) *call {
	return &call{
		kind:    kind,
		cmds:    cmds,
		replies: make([]interface{}, len(cmds)),
		errs:    make([]error, len(cmds)),
		left:    int32(len(cmds)),
		done:    make(chan struct{}),
	}
}

// deliver hands reply i to the waiter; the last delivery releases it.
func (cl *call) deliver(i int, v interface{}, err error) {
	cl.replies[i] = v
	cl.errs[i] = err
	if atomic.AddInt32(&cl.left, -1) == 0 {
		close(cl.done)
	}
}

// failAll fails a call none of whose replies have been delivered (it never
// reached the wire).
func (cl *call) failAll(err error) {
	for i := range cl.cmds {
		cl.deliver(i, nil, err)
	}
}

// slot is one expected wire reply, in stream order: either one command of
// one call, or a coalesced MGET/MSET answering a whole batch of
// single-key calls at once.
type slot struct {
	c     *call
	idx   int
	batch []*call // non-nil: coalesced batch; mget says which flavor
	mget  bool
}

// deliverReply routes one in-protocol reply to its waiter(s), demuxing a
// coalesced MGET array per key and fanning a coalesced MSET's +OK out to
// every folded Set.
func (s *slot) deliverReply(v interface{}, replyErr error) {
	if s.batch == nil {
		s.c.deliver(s.idx, v, replyErr)
		return
	}
	if !s.mget {
		for _, cl := range s.batch {
			cl.deliver(0, v, replyErr)
		}
		return
	}
	if replyErr != nil {
		for _, cl := range s.batch {
			cl.deliver(0, nil, replyErr)
		}
		return
	}
	arr, ok := v.([]interface{})
	if !ok || len(arr) != len(s.batch) {
		err := fmt.Errorf("client: MGET demux: unexpected reply %T (want %d elements)", v, len(s.batch))
		for _, cl := range s.batch {
			cl.deliver(0, nil, err)
		}
		return
	}
	for i, cl := range s.batch {
		if arr[i] == nil {
			cl.deliver(0, nil, Nil) // absent key: same shape as a plain GET
		} else {
			cl.deliver(0, arr[i], nil)
		}
	}
}

// fail fails every waiter still owed a reply through this slot.
func (s *slot) fail(err error) {
	if s.batch != nil {
		for _, cl := range s.batch {
			cl.deliver(0, nil, err)
		}
		return
	}
	s.c.deliver(s.idx, nil, err)
}

// MuxStats counts the multiplexer's work since Dial.
type MuxStats struct {
	Requests      int64 // commands enqueued by callers
	WireCommands  int64 // commands written to the socket (post-coalescing)
	Flushes       int64 // drain windows flushed (≈ write syscalls)
	CoalescedGets int64 // GETs folded into MGETs
	CoalescedSets int64 // SETs folded into MSETs
}

// Client is a multiplexed single-connection RESP client, safe for any
// number of concurrent callers. Callers enqueue requests; a writer
// goroutine drains everything pending in one buffered write + flush (the
// drain window: one syscall and one shared round trip however many
// callers landed in it), and a reader goroutine matches in-order replies
// back to per-call waiters. Single-key GETs (resp. SETs) sharing a window
// coalesce into one MGET (resp. MSET) with per-key demux of the reply.
// Connection-level errors are sticky: every in-flight and later call
// fails with the first error until a new client is dialed.
type Client struct {
	conn net.Conn
	r    *resp.Reader // reader goroutine only
	out  []byte       // writer goroutine only: the drain window being framed

	mu       sync.Mutex
	err      error   // sticky: first connection-level failure
	pending  []*call // enqueued, not yet drained by the writer
	inflight []*slot // written, in stream order, awaiting replies

	writerWake chan struct{} // cap 1: nudge writer after enqueue
	readerWake chan struct{} // cap 1: nudge reader after inflight append
	closeOnce  sync.Once
	closeErr   error

	requests      atomic.Int64
	wireCommands  atomic.Int64
	flushes       atomic.Int64
	coalescedGets atomic.Int64
	coalescedSets atomic.Int64

	testGate chan struct{} // tests only: writer blocks here before each drain
}

// newClient wraps an established connection in the mux and starts its
// writer and reader goroutines.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		r:          resp.NewReader(bufio.NewReaderSize(conn, 64<<10), resp.MaxArgs, resp.MaxBulkLen),
		writerWake: make(chan struct{}, 1),
		readerWake: make(chan struct{}, 1),
	}
	go c.writeLoop()
	go c.readLoop()
	return c
}

// Err reports the sticky connection error (nil while healthy). Once set
// the client is permanently broken; re-Dial to recover.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats returns a snapshot of the mux counters.
func (c *Client) Stats() MuxStats {
	return MuxStats{
		Requests:      c.requests.Load(),
		WireCommands:  c.wireCommands.Load(),
		Flushes:       c.flushes.Load(),
		CoalescedGets: c.coalescedGets.Load(),
		CoalescedSets: c.coalescedSets.Load(),
	}
}

// enqueue adds a call to the pending queue and nudges the writer. It
// fails fast with the sticky error on a broken client.
func (c *Client) enqueue(cl *call) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.pending = append(c.pending, cl)
	c.mu.Unlock()
	c.requests.Add(int64(len(cl.cmds)))
	select {
	case c.writerWake <- struct{}{}:
	default:
	}
	return nil
}

// writeLoop drains the pending queue: every request enqueued while the
// previous flush was on the wire goes out in one buffered write + flush.
func (c *Client) writeLoop() {
	for {
		<-c.writerWake
		c.mu.Lock()
		gate := c.testGate
		c.mu.Unlock()
		if gate != nil {
			<-gate
		}
		// One yield between wake and drain: callers that were released by
		// the reply burst currently being demuxed get to enqueue before
		// the window closes, growing it substantially under concurrency
		// for the cost of one scheduler pass (a single yield, not a spin
		// loop — safe at GOMAXPROCS=1).
		runtime.Gosched()
		c.mu.Lock()
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		batch := c.pending
		c.pending = nil
		c.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		if err := c.flushWindow(batch); err != nil {
			c.fail(err)
			return
		}
	}
}

// flushWindow turns one drain window into wire commands + reply slots:
// non-coalescible calls ship verbatim in FIFO order, then all the
// window's typed Gets fold into one MGET and its typed Sets into one
// MSET (a lone Set ships verbatim — SET and MSET replies are
// indistinguishable, so rewriting it buys nothing). Slots are queued to
// the reader before the bytes go out so stream order and slot order
// always agree.
func (c *Client) flushWindow(batch []*call) error {
	var slots []*slot
	var wire [][]string
	var gets, sets []*call
	for _, cl := range batch {
		switch cl.kind {
		case kindGet:
			gets = append(gets, cl)
		case kindSet:
			sets = append(sets, cl)
		default:
			for i := range cl.cmds {
				slots = append(slots, &slot{c: cl, idx: i})
				wire = append(wire, cl.cmds[i])
			}
		}
	}
	if len(sets) == 1 {
		slots = append(slots, &slot{c: sets[0]})
		wire = append(wire, sets[0].cmds[0])
	}
	if len(gets) >= 1 {
		// Even a lone typed Get ships as a one-key MGET so Get's
		// semantics are MGET's deterministically — a wrong-type key
		// always reads as Nil, never an error-or-Nil coin flip decided
		// by whether other Gets shared the window.
		cmd := make([]string, 1, 1+len(gets))
		cmd[0] = "MGET"
		for _, cl := range gets {
			cmd = append(cmd, cl.cmds[0][1])
		}
		slots = append(slots, &slot{batch: gets, mget: true})
		wire = append(wire, cmd)
		if len(gets) >= 2 {
			c.coalescedGets.Add(int64(len(gets)))
		}
	}
	if len(sets) >= 2 {
		cmd := make([]string, 1, 1+2*len(sets))
		cmd[0] = "MSET"
		for _, cl := range sets {
			cmd = append(cmd, cl.cmds[0][1], cl.cmds[0][2])
		}
		slots = append(slots, &slot{batch: sets})
		wire = append(wire, cmd)
		c.coalescedSets.Add(int64(len(sets)))
	}

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		for _, cl := range batch {
			cl.failAll(err)
		}
		return err
	}
	c.inflight = append(c.inflight, slots...)
	c.mu.Unlock()
	select {
	case c.readerWake <- struct{}{}:
	default:
	}
	out := c.out[:0]
	for _, args := range wire {
		out = resp.AppendCommand(out, args...)
	}
	if cap(out) <= maxRetainedOut {
		c.out = out
	} else {
		c.out = nil
	}
	// Counted before the write: a reply can release its caller before this
	// goroutine runs again, and the caller may read Stats at once.
	c.wireCommands.Add(int64(len(wire)))
	c.flushes.Add(1)
	_, err := c.conn.Write(out)
	return err
}

// readLoop pairs in-order RESP replies with the in-order slot queue and
// releases waiters; a connection-level read error fails everything.
func (c *Client) readLoop() {
	for {
		c.mu.Lock()
		for len(c.inflight) == 0 {
			if c.err != nil {
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
			<-c.readerWake
			c.mu.Lock()
		}
		s := c.inflight[0]
		c.inflight[0] = nil // release the slot to GC under head-creep
		c.inflight = c.inflight[1:]
		c.mu.Unlock()
		v, err := c.r.ReadReply()
		if err != nil {
			c.fail(err)
			s.fail(c.Err())
			return
		}
		s.deliverReply(replyResult(v))
	}
}

// fail installs the sticky error (first failure wins), closes the socket,
// and releases every waiter — pending and in-flight — with the sticky
// error. A possibly-desynced stream is never reused: all later calls fail
// fast until the caller re-dials.
func (c *Client) fail(cause error) {
	// Transport-level failures become typed ConnErrors so routed callers
	// can classify them (refresh + retry); an explicit Close stays
	// ErrClosed.
	if cause != ErrClosed {
		var ce *ConnError
		if !errors.As(cause, &ce) {
			cause = &ConnError{Err: cause}
		}
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = cause
	}
	sticky := c.err
	pending := c.pending
	inflight := c.inflight
	c.pending, c.inflight = nil, nil
	c.mu.Unlock()
	c.closeOnce.Do(func() { c.closeErr = c.conn.Close() })
	select {
	case c.writerWake <- struct{}{}:
	default:
	}
	select {
	case c.readerWake <- struct{}{}:
	default:
	}
	for _, cl := range pending {
		cl.failAll(sticky)
	}
	for _, s := range inflight {
		s.fail(sticky)
	}
}

// replyResult maps a decoded reply (resp.Reader.ReadReply) onto what a
// caller sees: the nil bulk is the Nil error, an error reply is a typed
// error, and an error element inside an array is the error of the whole
// array (its other elements were still consumed, so the stream stays in
// sync). Nil elements stay nil in their array.
func replyResult(v interface{}) (interface{}, error) {
	switch v := v.(type) {
	case nil:
		return nil, Nil
	case resp.Error:
		return nil, parseReplyError(string(v))
	case []interface{}:
		var firstErr error
		for i, e := range v {
			ev, err := replyResult(e)
			if err != nil && err != Nil && firstErr == nil {
				firstErr = err
			}
			v[i] = ev
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return v, nil
}
