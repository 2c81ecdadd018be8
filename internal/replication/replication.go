// Package replication implements TierBase's cache-tier replication layer
// (paper §3: "TierBase supports both single-replica and multi-replica
// modes, implementing various replication protocols to accommodate
// different reliability requirements"; §4.1.2 relies on it to protect
// dirty data under write-back).
//
// The package is a transport-agnostic seam: the master appends every
// logical mutation to a bounded, sequenced OpLog; any number of Stream
// subscribers (one per attached replica connection) cursor over the log
// and block for new ops; an AckTracker records how far each replica has
// acknowledged so semi-synchronous writes can wait for k replicas before
// acking the client. Framing for the network leg (length-prefixed binary
// op, ack, ping and snapshot-end frames; a snapshot is Seq-0 ops) lives
// in wire.go; the server package owns the sockets and the handshake. See
// README.md for the full contract.
package replication

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// OpKind enumerates replicated operations.
type OpKind uint8

// Replicated operation kinds. Every op carries the full resulting state
// of its key (RMW outcomes replicate as the value they produced), so
// replaying a window of ops over a newer snapshot converges.
const (
	// OpSet stores a raw string value.
	OpSet OpKind = iota
	// OpSetEncoded stores a typed collection blob (engine codec format):
	// the full post-mutation state of a list/set/zset/hash.
	OpSetEncoded
	// OpDel removes a key.
	OpDel
	// OpExpire sets a key's absolute expiry deadline. Val carries the
	// deadline as decimal UnixNano text — absolute, not relative, so a
	// replica applying the op late (slow link, replay) expires the key at
	// the same wall-clock instant the master did.
	OpExpire
	// OpPersist clears a key's expiry (empty Val).
	OpPersist
	// OpFlushAll clears the whole keyspace — cache AND private storage
	// tier on the replica (empty Key and Val).
	OpFlushAll
)

// Op is one replicated mutation. Ops are immutable once appended: Val
// must not be modified by any reader.
type Op struct {
	Seq  uint64
	Kind OpKind
	Key  string
	Val  []byte // nil for OpDel
}

// SetOp is the op that stores val at key: OpSetEncoded when val is a typed
// collection blob, OpSet for a raw string.
func SetOp(key string, val []byte, encoded bool) Op {
	if encoded {
		return Op{Kind: OpSetEncoded, Key: key, Val: val}
	}
	return Op{Kind: OpSet, Key: key, Val: val}
}

// ExpireOp is the op that sets key's expiry to at, an absolute UnixNano
// deadline, carried as decimal text.
func ExpireOp(key string, at int64) Op {
	return Op{Kind: OpExpire, Key: key, Val: strconv.AppendInt(nil, at, 10)}
}

// Log errors.
var (
	// ErrLogTrimmed means the requested position fell out of the log's
	// retained window; the subscriber needs a full sync.
	ErrLogTrimmed = errors.New("replication: position trimmed from op log")
	// ErrSeqGap is returned by AppendAt when the op skips sequences.
	ErrSeqGap = errors.New("replication: sequence gap")
	// ErrClosed is returned by Stream.Recv after the log closes.
	ErrClosed = errors.New("replication: op log closed")
	// ErrCanceled is returned by Stream.Recv after Cancel.
	ErrCanceled = errors.New("replication: stream canceled")
)

// DefaultLogCap is the default retained op window.
const DefaultLogCap = 65536

// OpLog is a bounded, sequenced in-memory operation log with blocking
// subscribers. A master Appends (assigning sequence numbers); a replica
// mirrors its master's log with AppendAt so promotion simply continues
// the sequence. Subscribers that fall out of the retained window get
// ErrLogTrimmed and must full-sync.
type OpLog struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ops   []Op   // retained window; ops[0].Seq == start
	start uint64 // seq of ops[0] (== seq+1 when empty)
	seq   uint64 // last appended sequence (0 = none)
	cap   int
	close bool

	// bytes approximates the retained window's heap footprint (key and
	// value payloads plus per-op struct overhead). Read lock-free by
	// overload watermark sampling.
	bytes atomic.Int64
}

// opOverheadBytes is the accounted per-op fixed cost: the 56-byte Op
// struct at the window slice's steady 1.25x capacity (append regrows the
// trimmed window by a quarter), plus the allocator's rounding of the key
// and value. Measured 74-80 B; TestOpLogBytesTracksHeap holds Bytes() to
// the heap.
const opOverheadBytes = 80

func opBytes(op Op) int64 {
	return int64(len(op.Key) + len(op.Val) + opOverheadBytes)
}

// NewOpLog creates a log retaining up to capacity ops (<=0 uses
// DefaultLogCap).
func NewOpLog(capacity int) *OpLog {
	if capacity <= 0 {
		capacity = DefaultLogCap
	}
	l := &OpLog{start: 1, cap: capacity}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Append assigns the next sequence to a new op and appends it, waking
// subscribers. val is copied (callers may pass buffers they reuse, e.g.
// RESP parse arenas). Returns the assigned sequence.
func (l *OpLog) Append(kind OpKind, key string, val []byte) uint64 {
	var v []byte
	if kind != OpDel && val != nil {
		v = make([]byte, len(val))
		copy(v, val)
	}
	l.mu.Lock()
	l.seq++
	op := Op{Seq: l.seq, Kind: kind, Key: key, Val: v}
	l.ops = append(l.ops, op)
	l.bytes.Add(opBytes(op))
	l.trimLocked()
	seq := l.seq
	l.cond.Broadcast()
	l.mu.Unlock()
	return seq
}

// AppendAt appends an op that already carries its sequence (a replica
// mirroring its master's stream). Duplicate delivery (op.Seq <= Seq())
// is ignored; a gap is an error. AppendAt takes ownership of op.Val.
func (l *OpLog) AppendAt(op Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if op.Seq <= l.seq {
		return nil // idempotent redelivery
	}
	if op.Seq != l.seq+1 {
		return ErrSeqGap
	}
	l.seq = op.Seq
	l.ops = append(l.ops, op)
	l.bytes.Add(opBytes(op))
	l.trimLocked()
	l.cond.Broadcast()
	return nil
}

// trimLocked drops the oldest ops past the retained capacity. The head
// slices forward; append's eventual reallocation reclaims the dead
// prefix, so memory stays O(window).
func (l *OpLog) trimLocked() {
	if len(l.ops) > l.cap {
		drop := len(l.ops) - l.cap
		var freed int64
		for _, op := range l.ops[:drop] {
			freed += opBytes(op)
		}
		l.bytes.Add(-freed)
		l.ops = l.ops[drop:]
		l.start += uint64(drop)
	}
}

// Reset discards the window and restarts the sequence at seq (a replica
// installing a full-sync snapshot that ends at seq).
func (l *OpLog) Reset(seq uint64) {
	l.mu.Lock()
	l.ops = nil
	l.bytes.Store(0)
	l.seq = seq
	l.start = seq + 1
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Bytes returns the approximate heap footprint of the retained op
// window. Lock-free; intended for overload watermark sampling.
func (l *OpLog) Bytes() int64 {
	return l.bytes.Load()
}

// Seq returns the last appended sequence (0 when empty).
func (l *OpLog) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// StartSeq returns the oldest retained sequence (Seq()+1 when empty).
func (l *OpLog) StartSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start
}

// Close wakes all subscribers; subsequent Recv calls return ErrClosed
// once they drain.
func (l *OpLog) Close() {
	l.mu.Lock()
	l.close = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Stream opens a subscriber cursor positioned after sequence `after`
// (0 = from the beginning). ErrLogTrimmed means `after` predates the
// retained window and the subscriber needs a full sync first.
func (l *OpLog) Stream(after uint64) (*Stream, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after+1 < l.start {
		return nil, ErrLogTrimmed
	}
	return &Stream{log: l, next: after + 1}, nil
}

// Stream is one subscriber's cursor over an OpLog.
type Stream struct {
	log      *OpLog
	next     uint64
	canceled bool
}

// Recv blocks until at least one op at or past the cursor is available,
// then returns a batch of up to cap(buf) ops (buf is reused; pass nil
// for a fresh default-sized buffer). Errors: ErrClosed after the log
// closes and the cursor drains, ErrCanceled after Cancel, ErrLogTrimmed
// if the cursor fell out of the retained window (subscriber too slow —
// full sync needed).
func (s *Stream) Recv(buf []Op) ([]Op, error) {
	l := s.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if s.canceled {
			return nil, ErrCanceled
		}
		if s.next < l.start {
			return nil, ErrLogTrimmed
		}
		if s.next <= l.seq {
			break
		}
		if l.close {
			return nil, ErrClosed
		}
		l.cond.Wait()
	}
	if cap(buf) == 0 {
		buf = make([]Op, 0, 256)
	}
	idx := int(s.next - l.start)
	n := int(l.seq - s.next + 1)
	if n > cap(buf) {
		n = cap(buf)
	}
	buf = append(buf[:0], l.ops[idx:idx+n]...)
	s.next += uint64(n)
	return buf, nil
}

// Cancel unblocks any pending Recv with ErrCanceled (connection
// teardown).
func (s *Stream) Cancel() {
	l := s.log
	l.mu.Lock()
	s.canceled = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// --- semi-synchronous acknowledgement tracking ---

// ErrNotEnoughAcks is returned in semi-sync mode when too few replicas
// acknowledged the write before the timeout.
var ErrNotEnoughAcks = errors.New("replication: not enough replica acks")

// AckTracker records each replica's acknowledged sequence and lets
// writers wait until k replicas reach a sequence — the semi-synchronous
// durability knob write-back caching needs (paper §4.1.2).
type AckTracker struct {
	mu      sync.Mutex
	acked   map[string]uint64
	waiters map[*ackWaiter]struct{}
}

type ackWaiter struct {
	seq  uint64
	need int
	ch   chan struct{}
}

// NewAckTracker creates an empty tracker.
func NewAckTracker() *AckTracker {
	return &AckTracker{
		acked:   make(map[string]uint64),
		waiters: make(map[*ackWaiter]struct{}),
	}
}

// Attach registers replica id with nothing acknowledged yet. A freshly
// attached replica counts toward waiters at sequence 0 (a write that
// produced no ops waits on the current sequence, which may be 0), and
// Ack only ever moves it forward.
func (t *AckTracker) Attach(id string) {
	t.mu.Lock()
	if _, ok := t.acked[id]; !ok {
		t.acked[id] = 0
		for w := range t.waiters {
			if t.countLocked(w.seq) >= w.need {
				close(w.ch)
				delete(t.waiters, w)
			}
		}
	}
	t.mu.Unlock()
}

// Ack records replica id as having applied everything up to seq.
func (t *AckTracker) Ack(id string, seq uint64) {
	t.mu.Lock()
	if seq > t.acked[id] {
		t.acked[id] = seq
	}
	for w := range t.waiters {
		if t.countLocked(w.seq) >= w.need {
			close(w.ch)
			delete(t.waiters, w)
		}
	}
	t.mu.Unlock()
}

// Detach removes a replica (disconnect); waiters it was counted toward
// re-evaluate at their timeout.
func (t *AckTracker) Detach(id string) {
	t.mu.Lock()
	delete(t.acked, id)
	t.mu.Unlock()
}

// countLocked counts replicas at or past seq.
func (t *AckTracker) countLocked(seq uint64) int {
	n := 0
	for _, a := range t.acked {
		if a >= seq {
			n++
		}
	}
	return n
}

// Wait blocks until at least need replicas acknowledged seq, or returns
// ErrNotEnoughAcks at the timeout. need <= 0 returns immediately.
func (t *AckTracker) Wait(seq uint64, need int, timeout time.Duration) error {
	if need <= 0 {
		return nil
	}
	t.mu.Lock()
	if t.countLocked(seq) >= need {
		t.mu.Unlock()
		return nil
	}
	w := &ackWaiter{seq: seq, need: need, ch: make(chan struct{})}
	t.waiters[w] = struct{}{}
	t.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		return nil
	case <-timer.C:
		t.mu.Lock()
		if _, still := t.waiters[w]; !still {
			// Ack raced the timeout and completed us.
			t.mu.Unlock()
			return nil
		}
		delete(t.waiters, w)
		t.mu.Unlock()
		return ErrNotEnoughAcks
	}
}

// Reached reports whether at least need replicas have acknowledged seq
// now: what a Wait that timed out on a later sequence asks about each
// earlier one.
func (t *AckTracker) Reached(seq uint64, need int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.countLocked(seq) >= need
}

// Acked returns replica id's acknowledged sequence and whether it is
// attached — the laggard-shedding probe (a master disconnects a replica
// whose Seq()-Acked(id) backlog exceeds its bound).
func (t *AckTracker) Acked(id string) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq, ok := t.acked[id]
	return seq, ok
}

// Snapshot returns a copy of the per-replica acked sequences (INFO
// replication).
func (t *AckTracker) Snapshot() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.acked))
	for id, seq := range t.acked {
		out[id] = seq
	}
	return out
}
