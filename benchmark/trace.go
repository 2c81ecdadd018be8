package main

import (
	"bufio"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/compress"
	"tierbase/internal/wal"
)

// The traced run drives one connection at depth 1, so every span that opens
// between a request's send and its reply belongs to that request and its
// parent is the innermost span open at that instant. That gives name, start,
// end, parent and request id from wrappers at seams the program already
// exposes, without touching the program.

type spanName uint8

const (
	spClientRequest spanName = iota
	spServerResidence
	spCompress
	spDecompress
	spLSMGet
	spLSMPut
	spLSMBatchPut
	spLSMOther // Delete, BatchGet, BatchDelete: counted as storage calls, not reported alone
	spWALAppend
	spWALSync
	spReplAckRTT
	spReplApply
	spBackground // the root of spans that open outside any request
)

var spanNames = [...]string{
	"client.request", "server.residence", "compress.compress", "compress.decompress",
	"lsm.get", "lsm.put", "lsm.batchput", "lsm.other", "wal.append", "wal.sync",
	"replication.ack_rtt", "replication.replica_apply", "background",
}

// shareLayers are the columns of the share table, and spanLayer maps each
// span to the column its self time is charged to.
var shareLayers = [...]string{"client overhead", "server self", "compress", "cache->lsm", "wal", "replication"}

var spanLayer = [...]int{0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, -1}

type span struct {
	name   spanName
	parent int32 // index into recorder.spans; the background root is 0
	start  int64 // ns since recorder.epoch
	end    int64
}

const noSpan = int32(-1)

// recorder holds the spans of a traced run in memory, and exact counts taken
// at the same boundaries.
type recorder struct {
	on    atomic.Bool // wrappers pass straight through while false
	epoch time.Time

	mu    sync.Mutex
	spans []span
	stack []int32 // open spans of the request in flight, innermost last

	clientBytesIn, clientBytesOut atomic.Int64 // as the server sees them
	compressIn, compressOut       atomic.Int64 // bytes through Compress
	walBytes                      atomic.Int64
	linkFrames, linkBytes         atomic.Int64 // master -> replica writes

	addrMu sync.Mutex
	addrs  map[string]connKind
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), addrs: map[string]connKind{}}
}

// reset drops everything recorded so far and opens the background root.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = append(r.spans[:0], span{name: spBackground, parent: noSpan})
	r.stack = r.stack[:0]
	r.mu.Unlock()
	for _, c := range []*atomic.Int64{&r.clientBytesIn, &r.clientBytesOut, &r.compressIn, &r.compressOut, &r.walBytes, &r.linkFrames, &r.linkBytes} {
		c.Store(0)
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span. With parent == noSpan it becomes a child of the
// innermost open span of the request in flight, or of the background root
// when no request is open; an explicit parent marks background work and is
// kept off the request stack.
func (r *recorder) begin(name spanName, parent int32) int32 {
	if !r.on.Load() {
		return noSpan
	}
	r.mu.Lock()
	t := r.now() // read under the lock, so that span order is lock order
	onStack := parent == noSpan && len(r.stack) > 0
	if onStack {
		parent = r.stack[len(r.stack)-1]
	} else if parent == noSpan {
		parent = 0
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, start: t})
	if onStack || name == spClientRequest {
		r.stack = append(r.stack, id)
	}
	r.mu.Unlock()
	return id
}

// end closes a span. Closing a span on the request stack also closes, at
// the same instant, any span still open inside it: the server's reply Write
// can return after the client has already parsed the reply, and a child is
// never recorded as outliving the parent that observed it.
func (r *recorder) end(id int32) {
	if id == noSpan {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.now()
	if r.spans[id].end != 0 {
		return // closed with its parent
	}
	r.spans[id].end = t
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == id {
			for _, inner := range r.stack[i+1:] {
				r.spans[inner].end = t
			}
			r.stack = r.stack[:i]
			return
		}
	}
}

// requestOpen reports whether a client request is in flight.
func (r *recorder) requestOpen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stack) > 0
}

// --- connection wrappers: server.residence, replication.* ---

type connKind uint8

const (
	connUnknown connKind = iota
	connClient           // the traced load connection, seen from the server
	connLink             // the replication link, seen from the master
	connIgnored          // control connections
)

// register tells the server-side wrapper what the connection dialled from
// local address addr is.
func (r *recorder) register(addr net.Addr, kind connKind) {
	r.addrMu.Lock()
	r.addrs[addr.String()] = kind
	r.addrMu.Unlock()
}

// serverConn wraps a connection the server accepted. On the load connection
// a span runs from the Read that returns request bytes to the Write that
// returns after the reply; on the replication link, from a frame Write to
// the Read that returns its ack. The link is read and written by different
// goroutines, hence the atomics.
type serverConn struct {
	net.Conn
	rec  *recorder
	kind atomic.Uint32 // connKind, connUnknown until the peer's address is looked up
	open atomic.Int32  // the span in progress, or noSpan
}

func (r *recorder) wrapServerConn(nc net.Conn) net.Conn {
	c := &serverConn{Conn: nc, rec: r}
	c.open.Store(noSpan)
	return c
}

func (c *serverConn) classify() connKind {
	k := connKind(c.kind.Load())
	if k == connUnknown {
		c.rec.addrMu.Lock()
		k = c.rec.addrs[c.RemoteAddr().String()]
		c.rec.addrMu.Unlock()
		if k == connUnknown {
			k = connIgnored
		}
		c.kind.Store(uint32(k))
	}
	return k
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n == 0 {
		return n, err
	}
	switch c.classify() {
	case connClient:
		if c.open.Load() == noSpan {
			c.open.Store(c.rec.begin(spServerResidence, noSpan))
		}
		if c.open.Load() != noSpan {
			c.rec.clientBytesIn.Add(int64(n))
		}
	case connLink:
		c.rec.end(c.open.Swap(noSpan))
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	kind := c.classify()
	if kind == connLink && c.open.Load() == noSpan && c.rec.requestOpen() {
		c.open.Store(c.rec.begin(spReplAckRTT, noSpan))
		c.rec.linkFrames.Add(1)
		c.rec.linkBytes.Add(int64(len(p)))
	}
	n, err := c.Conn.Write(p)
	if kind == connClient && c.open.Load() != noSpan {
		c.rec.clientBytesOut.Add(int64(n))
		c.rec.end(c.open.Swap(noSpan))
	}
	return n, err
}

// replicaConn wraps the connection a replica dialled to its master: a span
// runs from the Read that returns frame bytes to the Write of the ack.
type replicaConn struct {
	net.Conn
	rec  *recorder
	open atomic.Int32
}

// dialer is the replica's ReplicationConfig.Dialer.
func (r *recorder) dialer(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	r.register(nc.LocalAddr(), connLink)
	c := &replicaConn{Conn: nc, rec: r}
	c.open.Store(noSpan)
	return c, nil
}

func (c *replicaConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.open.Load() == noSpan && c.rec.requestOpen() {
		c.open.Store(c.rec.begin(spReplApply, noSpan))
	}
	return n, err
}

func (c *replicaConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.rec.end(c.open.Swap(noSpan))
	return n, err
}

// --- compressor wrapper: compress.* ---

type tracedCompressor struct {
	compress.Compressor
	rec *recorder
}

func (c tracedCompressor) Compress(src []byte) []byte {
	id := c.rec.begin(spCompress, noSpan)
	out := c.Compressor.Compress(src)
	c.rec.end(id)
	if id != noSpan {
		c.rec.compressIn.Add(int64(len(src)))
		c.rec.compressOut.Add(int64(len(out)))
	}
	return out
}

func (c tracedCompressor) Decompress(src []byte) ([]byte, error) {
	id := c.rec.begin(spDecompress, noSpan)
	out, err := c.Compressor.Decompress(src)
	c.rec.end(id)
	return out, err
}

// --- storage wrapper: lsm.* ---

// tracedStorage times the cache tier's calls into the storage tier. Under
// write-back the flusher makes every write, off the request path, so write
// spans are charged to the background root; its own WAL appends find it
// through bg.
type tracedStorage struct {
	cache.Storage
	rec       *recorder
	writeBack bool
	bg        atomic.Int32 // the open background write span, or noSpan
}

func (s *tracedStorage) beginWrite(name spanName) int32 {
	if !s.writeBack {
		return s.rec.begin(name, noSpan)
	}
	id := s.rec.begin(name, 0)
	s.bg.Store(id)
	return id
}

func (s *tracedStorage) endWrite(id int32) {
	if s.writeBack {
		s.bg.Store(noSpan)
	}
	s.rec.end(id)
}

func (s *tracedStorage) Get(key string) ([]byte, bool, error) {
	id := s.rec.begin(spLSMGet, noSpan)
	v, ok, err := s.Storage.Get(key)
	s.rec.end(id)
	return v, ok, err
}

func (s *tracedStorage) BatchGet(keys []string) (map[string][]byte, error) {
	id := s.rec.begin(spLSMOther, noSpan)
	m, err := s.Storage.BatchGet(keys)
	s.rec.end(id)
	return m, err
}

func (s *tracedStorage) Put(key string, val []byte) error {
	id := s.beginWrite(spLSMPut)
	err := s.Storage.Put(key, val)
	s.endWrite(id)
	return err
}

func (s *tracedStorage) BatchPut(entries map[string][]byte) error {
	id := s.beginWrite(spLSMBatchPut)
	err := s.Storage.BatchPut(entries)
	s.endWrite(id)
	return err
}

func (s *tracedStorage) Delete(key string) error {
	id := s.beginWrite(spLSMOther)
	err := s.Storage.Delete(key)
	s.endWrite(id)
	return err
}

func (s *tracedStorage) BatchDelete(keys []string) error {
	id := s.beginWrite(spLSMOther)
	err := s.Storage.BatchDelete(keys)
	s.endWrite(id)
	return err
}

// FlushAll keeps the wrapped storage's cache.StorageFlusher reachable.
func (s *tracedStorage) FlushAll() error { return cache.FlushStorage(s.Storage) }

// --- WAL wrapper: wal.* ---

// tracedWAL times the LSM's calls into its write-ahead log. The embedded
// *wal.Log keeps Rotate and RemoveBefore reachable, so segment reclamation
// works as in the server. Under wal.SyncInterval the log syncs on its own
// ticker, which no seam exposes: wal.sync spans cover explicit Sync calls
// only, and wal.syncs_per_op comes from the log's own counter.
type tracedWAL struct {
	*wal.Log
	rec   *recorder
	store *tracedStorage
}

func (w *tracedWAL) parent() int32 {
	if w.store != nil {
		return w.store.bg.Load()
	}
	return noSpan
}

func (w *tracedWAL) Append(payload []byte) error {
	id := w.rec.begin(spWALAppend, w.parent())
	err := w.Log.Append(payload)
	w.rec.end(id)
	if id != noSpan {
		w.rec.walBytes.Add(int64(len(payload)))
	}
	return err
}

func (w *tracedWAL) Sync() error {
	id := w.rec.begin(spWALSync, w.parent())
	err := w.Log.Sync()
	w.rec.end(id)
	return err
}

// --- analysis ---

// selfTimes returns each span's duration minus the part of it its children
// cover. Children are clipped to the parent, and overlapping children are
// counted once.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // end of the part of the parent covered so far
	for i, s := range spans {
		self[i] = s.end - s.start
		covered[i] = s.start
	}
	// A child is appended after its parent and siblings are appended in
	// start order, so one forward pass sees each parent's children sorted.
	for _, s := range spans {
		if s.parent < 0 || spans[s.parent].name == spBackground {
			continue
		}
		p := spans[s.parent]
		from, to := max(s.start, covered[s.parent]), min(s.end, p.end)
		if to > from {
			self[s.parent] -= to - from
			covered[s.parent] = to
		}
	}
	return self
}

// writeSpans writes every span as one JSON array per line:
// [id, parent, "name", start_ns, end_ns].
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("{\"columns\":[\"id\",\"parent\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[\n")
	var b []byte
	for i, s := range spans {
		b = append(b[:0], '[')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, ',', '"')
		b = append(b, spanNames[s.name]...)
		b = append(b, '"', ',')
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, ']')
		if i < len(spans)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		w.Write(b)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
