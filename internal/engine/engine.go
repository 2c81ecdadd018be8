// Package engine implements the cache-tier in-memory engine of TierBase
// (paper §3): a multi-model key-value store with Redis-compatible data
// types (strings, lists, sets, sorted sets, hashes/wide-columns), CAS
// operations and TTLs. Values can transparently pass through a pre-trained
// compressor (§4.2) and/or be offloaded to the simulated persistent-memory
// arena (§4.3: keys and indexes stay in DRAM, large values move to PMem).
//
// # Layout
//
// Keys hash (FNV-1a) onto a power-of-two number of lock stripes, each
// with its own RWMutex, index and counters, so operations on different
// stripes never contend. Batch operations (MGet/MSet/BatchDel) group keys
// by stripe and take each stripe lock exactly once.
//
// A string key is one contiguous, pointer-free record (record.go): one
// byte of flags (compressed, PMem ref, has TTL) and key length, the key, an
// 8-byte deadline only if a TTL was ever set, then the value length and the
// stored value (or the 12-byte pmem.Ref to it).
//
// Records live in their stripe's slab (slab.go), not in allocations of
// their own: 16 KiB pointer-free pages carved into slots of exactly the
// record's size, a free list per slot size, and a side table of own
// allocations for records past 1 KiB. Each stripe finds its records
// through an open-addressing index (index.go): 8-byte slots of hash and
// slab ref, linear probing with backward-shift deletion, between 7/16 and
// 7/8 full at a steady population, no table at all while the stripe is
// empty. The key's one FNV hash serves both levels: low bits pick the
// stripe, a Fibonacci multiply spreads it over the slots. Tables and pages
// hold no pointers, so the garbage collector marks a few hundred objects
// per engine instead of one per key. README.md has the byte-level layout.
//
// Collections (the rarer kinds, with mutable internals) keep a *item in a
// per-stripe map beside the index. A key is in one or the other, and every
// keyed operation resolves it through shard.lookup, so type crossing (SET
// over a hash, GET on a list) behaves the same whichever side holds it.
//
// # Accounting
//
// MemUsed, ShardMemUsed and Stats().MemBytes are the bytes the engine's
// contents occupy: every record at its slot (own allocations at the Go
// allocator's size class), every index table as allocated, and for
// collections a fixed cost from the item's size and its map slot plus
// their elements. A delete or an eviction takes the record's slot off at
// once. The cache budget, the overload watermark, cost-advisor and the
// perf ledger all read this number, and an empty engine reports 0. Page
// bytes that hold no record (freed slots waiting for the next record of
// their size, the uncarved tail of each stripe's newest page) are
// Stats().FreeBytes; TestMemUsedTracksHeap holds MemBytes + FreeBytes
// within 5% of the Go heap. Stats().PayloadBytes is the part of MemBytes
// that is keys and stored values; the rest is overhead.
//
// # Recency and eviction
//
// Every resident key has one reference bit: bit 30 of its index entry's ref
// word (a slab ref leaves it clear), or a flag in a collection's item. A
// read or a write that serves a caller sets it while holding the stripe
// lock it holds anyway, the read lock included: test, then an atomic or.
// Evict is CLOCK over the stripe's own index: a hand walks the slots,
// clears the bits it finds set and removes the first key it finds without
// one that the caller does not pin. There is no list, no second map and no
// second lock: what a key costs is in MemUsed.
//
// # Concurrency
//
// The engine is safe for concurrent use. A stripe's index, slab,
// collection map and accounts change only under its write lock; the one
// exception is the reference bit, which readers set (index.touch), so the
// ref word is loaded atomically under the read lock. Slots are reused, so
// there is one reader rule: nothing that aliases engine-owned storage
// leaves the stripe lock. A reader copies the stored bytes out
// under the read lock (a raw value straight into its result, a compressed
// one into scratch, a PMem one through Arena.Get) and decompresses with
// no lock held; see take.
package engine

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/compress"
	"tierbase/internal/pmem"
)

// Kind enumerates value types.
type Kind uint8

// Value kinds.
const (
	KindNone Kind = iota
	KindString
	KindList
	KindSet
	KindZSet
	KindHash
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindList:
		return "list"
	case KindSet:
		return "set"
	case KindZSet:
		return "zset"
	case KindHash:
		return "hash"
	default:
		return "none"
	}
}

// Engine errors.
var (
	ErrNotFound    = errors.New("engine: key not found")
	ErrWrongType   = errors.New("engine: operation against wrong value type")
	ErrCASMismatch = errors.New("engine: compare-and-set mismatch")
	ErrNotInteger  = errors.New("engine: value is not an integer")
)

// DefaultShards is the default number of lock stripes.
const DefaultShards = 16

// Options configures an Engine.
type Options struct {
	// Compressor transparently encodes string values (nil = raw).
	Compressor compress.Compressor
	// CompressMin is the minimum value size to compress (default 16 B).
	CompressMin int
	// Monitor observes compression outcomes for retrain decisions.
	Monitor *compress.Monitor
	// Arena offloads string values >= PMemMin bytes to persistent memory.
	Arena *pmem.Arena
	// PMemMin is the offload threshold (default 64 B).
	PMemMin int
	// Clock overrides time.Now for TTL tests.
	Clock func() time.Time
	// Shards is the number of lock stripes, rounded up to a power of two
	// (default DefaultShards). 1 reproduces the old single-mutex engine
	// (useful as a contention baseline in benchmarks).
	Shards int
}

func (o *Options) fill() {
	if o.CompressMin <= 0 {
		o.CompressMin = 16
	}
	if o.PMemMin <= 0 {
		o.PMemMin = 64
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	o.Shards = ceilPow2(o.Shards)
}

// ceilPow2 rounds n up to the next power of two (capped at 1<<16).
func ceilPow2(n int) int {
	p := 1
	for p < n && p < 1<<16 {
		p <<= 1
	}
	return p
}

// item is one collection (list, set, sorted set or hash). String keys have
// no item: they live in records (record.go).
type item struct {
	kind     Kind
	ref      atomic.Bool // read or written since the clock hand last passed; fits in kind's padding
	list     [][]byte
	set      map[string]struct{}
	zset     *zset
	hash     map[string][]byte
	expireAt int64 // unixnano; 0 = no expiry
	memBytes int64 // accounted DRAM footprint
	payload  int64 // the part of memBytes that is key and element bytes
}

// shard is one lock stripe: its own index and slab of string records, map
// of collections and counters, so hot shards never contend with cold ones
// (not on the lock, not on the stat cachelines). A key is in strs or in
// colls, never both.
type shard struct {
	mu    sync.RWMutex
	strs  index
	colls map[string]*item // nil until the stripe holds a collection

	sweepPos  atomic.Uint32 // where CollectExpired resumes in strs, as a hash like index.hand
	collsTurn bool          // the clock hand is past the end of strs, among the collections

	memUsed atomic.Int64 // DRAM bytes the contents occupy; written under mu
	payload atomic.Int64 // of which keys and stored values; written under mu
	hits    atomic.Int64
	misses  atomic.Int64
	expired atomic.Int64

	// A shard is heap-allocated on its own in a size class that is a
	// multiple of the cacheline, so no two shards' counters share a line.
}

// Engine is the in-memory store.
type Engine struct {
	shards []*shard
	mask   uint32
	opts   Options

	// sweepCursor is the stripe CollectExpired is in.
	sweepCursor atomic.Uint32
}

// New creates an engine.
func New(opts Options) *Engine {
	opts.fill()
	e := &Engine{
		shards: make([]*shard, opts.Shards),
		mask:   uint32(opts.Shards - 1),
		opts:   opts,
	}
	for i := range e.shards {
		e.shards[i] = &shard{}
	}
	return e
}

// NumShards reports the number of lock stripes.
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardIndex reports the stripe index owning key. Callers that keep their
// own per-stripe state (the cache tier's dirty set and RMW locks)
// use this to align it with the engine's striping, so one key always maps
// to the same stripe on both sides.
func (e *Engine) ShardIndex(key string) int { return int(fnv1a(key) & e.mask) }

// ShardMemUsed reports the DRAM bytes stripe i's contents occupy, the
// per-stripe leg of MemUsed: 0 for a stripe that holds no key. It falls by
// a record's slot the moment the record is deleted, whatever becomes of the
// page the slot is in.
func (e *Engine) ShardMemUsed(i int) int64 { return e.shards[i].memUsed.Load() }

// fnv1a is an inlined, allocation-free FNV-1a over the key bytes.
func fnv1a[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// locate hashes key once for both levels: the low bits pick the stripe,
// and the stripe's index spreads the same hash again (slotHash).
func (e *Engine) locate(key string) (kh uint32, s *shard) {
	kh = fnv1a(key)
	return kh, e.shards[kh&e.mask]
}

// now returns the configured clock's time in unixnanos.
func (e *Engine) now() int64 { return e.opts.Clock().UnixNano() }

// lapsed reports whether a deadline has passed. Keys without one (at == 0)
// never read the clock.
func (e *Engine) lapsed(at int64) bool { return at != 0 && e.now() >= at }

// entry is what a key resolves to in its stripe: a string record, a
// collection, or (the zero entry) nothing.
type entry struct {
	rec record
	at  int // rec's position in the index
	it  *item
}

func (en entry) present() bool { return en.rec != nil || en.it != nil }

func (en entry) kind() Kind {
	switch {
	case en.rec != nil:
		return KindString
	case en.it != nil:
		return en.it.kind
	}
	return KindNone
}

// expireAt is the entry's deadline, 0 when it has none or is absent.
func (en entry) expireAt() int64 {
	switch {
	case en.rec != nil:
		return en.rec.deadline()
	case en.it != nil:
		return en.it.expireAt
	}
	return 0
}

// lookup resolves key, lapsed or not. Caller holds s.mu (either mode).
func (s *shard) lookup(kh uint32, key string) entry {
	if at, rec := s.strs.find(slotHash(kh), key); at >= 0 {
		return entry{rec: rec, at: at}
	}
	return entry{it: s.colls[key]}
}

// touch marks en, which lookup returned, referenced: the clock hand gives
// it another lap before Evict may take it. Reads and writes that serve a
// caller touch; existence probes, TTL changes and snapshot walks do not.
// Caller holds s.mu (either mode).
func (s *shard) touch(en entry) {
	if en.rec != nil {
		s.strs.touch(en.at)
	} else if !en.it.ref.Load() {
		en.it.ref.Store(true)
	}
}

// live is lookup honoring lazy expiration: a lapsed entry reads as absent
// (it is deleted by write paths or the sweeper). Caller holds s.mu.
func (e *Engine) live(s *shard, kh uint32, key string) (entry, bool) {
	en := s.lookup(kh, key)
	if !en.present() || e.lapsed(en.expireAt()) {
		return entry{}, false
	}
	return en, true
}

// --- publishing and removing entries (caller holds s.mu write lock) ---

// collSlotBytes is the map[string]*item slot a collection occupies: a
// 16-byte key header, the pointer and a control byte, at the 1/2 to 7/8
// load a Go map runs at.
const collSlotBytes = 48

// newItem starts an empty collection of kind for key, with room for size
// elements, charged its cost before the first element: the item, its map
// slot and the key string the map holds.
func newItem(key string, kind Kind, size int) *item {
	it := &item{
		kind:     kind,
		memBytes: allocBytes(itemBytes) + collSlotBytes + allocBytes(len(key)),
		payload:  int64(len(key)),
	}
	switch kind {
	case KindList:
		it.list = make([][]byte, 0, size)
	case KindSet:
		it.set = make(map[string]struct{}, size)
	case KindZSet:
		it.zset = &zset{scores: make(map[string]float64, size), sorted: make([]zentry, 0, size)}
	case KindHash:
		it.hash = make(map[string][]byte, size)
	}
	return it
}

// freeRef returns a value's PMem, if that is where it lives, to the arena.
func (e *Engine) freeRef(st stored) {
	if st.flags&flagPMem != 0 {
		e.opts.Arena.Free(st.ref())
	}
}

// forget takes the payload of the record whose fields are f out of the
// accounts and frees the PMem its value occupies. The caller then takes the
// record out of the index, which frees its slot, and settles memUsed.
func (e *Engine) forget(s *shard, f fields) {
	e.freeRef(f.stored)
	s.payload.Add(-f.payload())
}

// removeItem deletes the collection it, which is key's entry.
func (e *Engine) removeItem(s *shard, key string, it *item) {
	delete(s.colls, key)
	s.memUsed.Add(-it.memBytes)
	s.payload.Add(-it.payload)
}

// remove deletes en, which lookup returned for key.
func (e *Engine) remove(s *shard, key string, en entry) {
	if en.it != nil {
		e.removeItem(s, key, en.it)
		return
	}
	e.removeRecord(s, en.at, en.rec.parse())
}

// removeRecord deletes the string in slot at, whose record parsed to f.
func (e *Engine) removeRecord(s *shard, at int, f fields) {
	held := s.strs.held()
	e.forget(s, f)
	s.strs.remove(at, f.size)
	s.memUsed.Add(s.strs.held() - held)
}

// publish makes st the string value of key, replacing whatever was there
// and clearing any TTL. The record is assembled in its slot: no allocation
// unless a page or a table has to grow.
func (e *Engine) publish(s *shard, kh uint32, key string, st staged) {
	if it, ok := s.colls[key]; ok {
		e.removeItem(s, key, it)
	}
	ix := &s.strs
	held := ix.held()
	h := slotHash(kh)
	i, cur := ix.find(h, key)
	ref, rec := ix.recs.alloc(recordLen(key, st.valueLen()))
	writeRecord(rec, key, st)
	if i >= 0 {
		old := cur.parse()
		e.forget(s, old)
		ix.replace(i, ref, old.size)
		ix.touch(i)
	} else {
		ix.insert(h, ref)
	}
	s.payload.Add(payload(st.flags, len(key), len(st.val)))
	s.memUsed.Add(ix.held() - held)
}

// addItem makes the collection it the entry for key, which has none. Like
// a string (index.insert) it starts referenced.
func (e *Engine) addItem(s *shard, key string, it *item) {
	if s.colls == nil {
		s.colls = make(map[string]*item)
	}
	s.colls[key] = it
	it.ref.Store(true)
	s.memUsed.Add(it.memBytes)
	s.payload.Add(it.payload)
}

// --- value encode/decode (compression + PMem placement) ---

// encode stages a string value: compressed when that makes it smaller, in
// PMem when it is large enough and the arena has room. Runs outside the
// stripe lock; a staged value that is then not published must go to
// discard.
func (e *Engine) encode(val []byte) staged {
	st := staged{val: val}
	if c := e.opts.Compressor; c != nil && len(val) >= e.opts.CompressMin {
		comp := c.Compress(val)
		if m := e.opts.Monitor; m != nil {
			m.Observe(len(val), len(comp), compress.IsEscape(comp) && c.Name() == "pbc")
		}
		if len(comp) < len(val) {
			st.val, st.flags = comp, flagCompressed
		}
	}
	if a := e.opts.Arena; a != nil && len(st.val) >= e.opts.PMemMin {
		// Arena full: fall back to DRAM.
		if ref, err := a.Put(st.val); err == nil {
			st.ref, st.flags = ref, st.flags|flagPMem
		}
	}
	return st
}

// discard releases what encode took for a value that lost its race.
func (e *Engine) discard(st staged) {
	if st.flags&flagPMem != 0 {
		e.opts.Arena.Free(st.ref)
	}
}

// take copies a record's stored value out of the stripe: a raw value into
// a fresh slice that is the caller's result, a compressed one onto
// scratch, one in PMem through Arena.Get. Caller holds s.mu; nothing take
// returns aliases the record, so the caller may unlock and then finish.
func (e *Engine) take(st stored, scratch []byte) (data, grown []byte, err error) {
	switch {
	case st.flags&flagPMem != 0:
		data, err = e.opts.Arena.Get(st.ref())
	case st.flags&flagCompressed != 0:
		n := len(scratch)
		scratch = append(scratch, st.val...)
		data = scratch[n:]
	default:
		// Always non-nil: a present empty value must stay distinguishable
		// from an absent key (nil).
		data = make([]byte, len(st.val))
		copy(data, st.val)
	}
	return data, scratch, err
}

// finish turns what take returned for a record of these flags into the
// value's logical bytes. Runs outside the stripe lock.
func (e *Engine) finish(flags byte, data []byte) ([]byte, error) {
	if flags&flagCompressed != 0 {
		return e.opts.Compressor.Decompress(data)
	}
	return data, nil
}

// view returns the logical bytes of a record's value for a caller that
// keeps holding s.mu while it looks at them: a raw value is the record's
// own bytes, not a copy.
func (e *Engine) view(st stored) ([]byte, error) {
	data := st.val
	if st.flags&flagPMem != 0 {
		var err error
		if data, err = e.opts.Arena.Get(st.ref()); err != nil {
			return nil, err
		}
	}
	return e.finish(st.flags, data)
}

// scratchPool holds the buffers Get and MGet copy compressed values into
// on their way out of the stripe lock. (A stack buffer would be moved to
// the heap: it is passed to Compressor.Decompress, an interface method.)
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledScratch keeps one huge value from pinning its buffer in the pool.
const maxPooledScratch = 64 << 10

// getScratch takes an empty buffer from the pool; putScratch hands it
// back as it has grown. putScratch(nil, nil) does nothing.
func getScratch() (pooled *[]byte, scratch []byte) {
	pooled = scratchPool.Get().(*[]byte)
	return pooled, (*pooled)[:0]
}

func putScratch(pooled *[]byte, scratch []byte) {
	if pooled != nil && cap(scratch) <= maxPooledScratch {
		*pooled = scratch
		scratchPool.Put(pooled)
	}
}

// --- string operations ---

// Set stores a string value, clearing any TTL.
func (e *Engine) Set(key string, val []byte) error {
	kh, s := e.locate(key)
	st := e.encode(val)
	s.mu.Lock()
	e.publish(s, kh, key, st)
	s.mu.Unlock()
	return nil
}

// SetNX stores val only if key is absent; reports whether it stored.
func (e *Engine) SetNX(key string, val []byte) (bool, error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	_, live := e.live(s, kh, key)
	s.mu.RUnlock()
	if live {
		return false, nil
	}
	// Encode outside the lock; wasted work only when a concurrent SetNX
	// wins the race below, which the write-locked re-check detects.
	st := e.encode(val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := e.live(s, kh, key); live {
		e.discard(st)
		return false, nil
	}
	e.publish(s, kh, key, st)
	return true, nil
}

// Get fetches a string value: it looks the record up and copies its stored
// value out under the stripe read lock, and decompresses outside.
func (e *Engine) Get(key string) (val []byte, err error) {
	kh, s := e.locate(key)
	s.mu.RLock()
	en, ok := e.live(s, kh, key)
	if !ok {
		s.mu.RUnlock()
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	if en.rec == nil {
		s.mu.RUnlock()
		return nil, ErrWrongType
	}
	s.touch(en)
	f := en.rec.parse()
	var pooled *[]byte
	var scratch []byte
	if f.flags&flagCompressed != 0 {
		pooled, scratch = getScratch()
	}
	data, scratch, err := e.take(f.stored, scratch)
	s.mu.RUnlock()
	s.hits.Add(1)
	if err == nil {
		val, err = e.finish(f.flags, data)
	}
	putScratch(pooled, scratch)
	return val, err
}

// Del removes keys; returns how many existed. Multi-key deletes group by
// shard and take each stripe lock once (see BatchDel).
func (e *Engine) Del(keys ...string) int { return e.BatchDel(keys) }

// Exists reports whether key is live.
func (e *Engine) Exists(key string) bool {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := e.live(s, kh, key)
	return ok
}

// Type returns the kind of key (KindNone if absent).
func (e *Engine) Type(key string) Kind {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	en, _ := e.live(s, kh, key)
	return en.kind()
}

// CompareAndSet replaces key's value with newVal only if the current value
// equals oldVal (the paper's CAS operation). oldVal nil means "key absent".
func (e *Engine) CompareAndSet(key string, oldVal, newVal []byte) error {
	kh, s := e.locate(key)
	// Pre-encode outside the lock; wasted work only on mismatch.
	st := e.encode(newVal)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := e.casCheck(s, kh, key, oldVal); err != nil {
		e.discard(st)
		return err
	}
	e.publish(s, kh, key, st)
	return nil
}

// casCheck reports whether key currently holds oldVal (nil = is absent).
// Caller holds s.mu.
func (e *Engine) casCheck(s *shard, kh uint32, key string, oldVal []byte) error {
	en, ok := e.live(s, kh, key)
	if !ok {
		if oldVal != nil {
			return ErrCASMismatch
		}
		return nil
	}
	if en.rec == nil {
		return ErrWrongType
	}
	cur, err := e.view(en.rec.parse().stored)
	if err != nil {
		return err
	}
	if oldVal == nil || !bytes.Equal(cur, oldVal) {
		return ErrCASMismatch
	}
	return nil
}

// IncrBy adds delta to the integer value at key (0 if absent).
func (e *Engine) IncrBy(key string, delta int64) (int64, error) {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur int64
	if en, ok := e.live(s, kh, key); ok {
		if en.rec == nil {
			return 0, ErrWrongType
		}
		raw, err := e.view(en.rec.parse().stored)
		if err != nil {
			return 0, err
		}
		if cur, err = parseInt(raw); err != nil {
			return 0, ErrNotInteger
		}
	}
	cur += delta
	// Counters are never compressed or offloaded.
	var buf [20]byte
	e.publish(s, kh, key, staged{val: appendInt(buf[:0], cur)})
	return cur, nil
}

// --- TTL ---

// Expire sets a TTL; reports whether the key existed.
func (e *Engine) Expire(key string, d time.Duration) bool {
	return e.ExpireAt(key, e.now()+int64(d))
}

// ExpireAt sets an absolute expiry deadline (UnixNano on the engine's
// clock); reports whether the key existed. Replication uses this form:
// an op applied seconds late on a slow replica must expire the key at
// the master's wall-clock instant, not late-arrival + TTL.
func (e *Engine) ExpireAt(key string, at int64) bool {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := e.live(s, kh, key)
	if !ok {
		return false
	}
	switch {
	case en.it != nil:
		en.it.expireAt = at
	case en.rec[0]&flagTTL != 0:
		en.rec.setDeadline(at)
	case at != 0:
		// First TTL on this record: move it to a slot with room for the
		// deadline. The copy carries the same value (or PMem ref), so only
		// the record's own bytes change hands.
		ix := &s.strs
		held := ix.held()
		size := en.rec.parse().size
		ref, rec := ix.recs.alloc(size + 8)
		en.rec.withDeadline(rec, at)
		ix.replace(en.at, ref, size)
		s.memUsed.Add(ix.held() - held)
	}
	return true
}

// TakeExpired deletes key if (and only if) it is present with a lapsed
// TTL, reporting whether it did. This is the expiry-driven
// delete-through hook: lazy expiry leaves the dead entry in place and
// live merely hides it, so without this seam an expired key
// resurrects from the storage tier on its next cold read. The caller
// (cache.Tiered) routes a tombstone through the write path when this
// returns true.
func (e *Engine) TakeExpired(key string) bool {
	kh, s := e.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	en := s.lookup(kh, key)
	if !e.lapsed(en.expireAt()) {
		return false
	}
	e.remove(s, key, en)
	s.expired.Add(1)
	return true
}

// Expired reports whether key is resident with a lapsed TTL: a key
// TakeExpired would take. Read lock only.
func (e *Engine) Expired(key string) bool {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return e.lapsed(s.lookup(kh, key).expireAt())
}

// CollectExpired looks at the next limit or so keys of the engine and returns
// those whose TTL has lapsed but whose entries still occupy their stripe
// (the active expiration cycle; lazy expiry handles access). It resumes where
// the last call stopped, stripe after stripe and slot after slot, so calls
// with a small limit cover the keyspace between them; one call enters each
// stripe at most once. A stripe's collections are looked at together when
// its table ends, because a map has no place to resume from. Read locks
// only — the caller confirms and deletes each key through TakeExpired
// (directly or via the tiered delete-through path), which rechecks under
// the write lock so a concurrent PERSIST or overwrite wins the race.
func (e *Engine) CollectExpired(limit int) []string {
	var out []string
	now := e.now()
	for n := len(e.shards); n > 0 && limit > 0; n-- {
		s := e.shards[e.sweepCursor.Load()&e.mask]
		s.mu.RLock()
		pos, end := s.strs.scan(s.sweepPos.Load(), &limit, func(rec record) {
			if at := rec.deadline(); at != 0 && now >= at {
				out = append(out, string(rec.parse().key))
			}
		})
		s.sweepPos.Store(pos)
		if end {
			for key, it := range s.colls {
				if it.expireAt != 0 && now >= it.expireAt {
					out = append(out, key)
				}
			}
			limit -= len(s.colls)
			e.sweepCursor.Add(1)
		}
		s.mu.RUnlock()
	}
	return out
}

// Persist clears a TTL; reports whether the key existed.
func (e *Engine) Persist(key string) bool { return e.ExpireAt(key, 0) }

// TTL returns the remaining lifetime; (0, false) if absent or no TTL.
func (e *Engine) TTL(key string) (time.Duration, bool) {
	kh, s := e.locate(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	at := s.lookup(kh, key).expireAt()
	now := e.now()
	if at == 0 || now >= at {
		return 0, false
	}
	return time.Duration(at - now), true
}

// --- eviction ---

// Evict removes one key from stripe i, or reports false when the stripe
// holds nothing it may remove. It is CLOCK over the stripe's own
// contents: a hand walks the index in slot order, then the collections, and
// around again; a key read or written since the hand last passed it (touch)
// loses its mark and stays for another lap, and the hand does not so much
// as read its record; an unmarked key that pinned (nil: none is) holds is
// passed over, and the first key with neither excuse goes. The hand stays
// where it stopped for the next call.
//
// pinned is asked only about unmarked keys, so a pinned key loses its mark
// like any other. It cannot leave while pinned either way; once unpinned it
// goes at the hand's next visit unless it was used in between.
//
// pinned runs under the stripe's write lock: a key it holds cannot leave by
// this call, and one it lets go cannot be written before it is gone. It
// must not call into the engine, and key, which may alias the engine's own
// bytes, is good only until it returns. The key that goes is the last one
// pinned was asked about, so a caller that wants its name has it there;
// Evict makes no copy of it.
func (e *Engine) Evict(i int, pinned func(key []byte) bool) bool {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	// The hand gives up a lap after the last mark it cleared: by then every
	// key it saw was pinned. That is two laps at most.
	lap := s.strs.n + len(s.colls)
	for look := lap; look > 0; {
		if !s.collsTurn {
			at, victim, end := s.strs.clock(&look, lap, pinned)
			if at >= 0 {
				e.removeRecord(s, at, victim)
				return true
			}
			if !end {
				break
			}
			s.collsTurn = true
		}
		// A map has no position to resume from, so the hand's pass over the
		// collections is spread over calls another way: each call takes one
		// unmarked collection, and the call that finds none clears every
		// mark and moves the hand on.
		marked := false
		for key, it := range s.colls {
			switch {
			case it.ref.Load():
				marked = true
			case pinned != nil && pinned([]byte(key)):
			default:
				e.removeItem(s, key, it)
				return true
			}
		}
		look -= len(s.colls)
		if marked {
			look = lap
			for _, it := range s.colls {
				it.ref.Store(false)
			}
		}
		s.collsTurn = false
	}
	return false
}

// --- introspection ---

// Stats summarizes engine state.
type Stats struct {
	Keys         int
	MemBytes     int64 // DRAM occupied: records, index tables, collections
	PayloadBytes int64 // the part of MemBytes that is keys and stored values
	IndexBytes   int64 // the part of MemBytes that is index tables, as allocated
	FreeBytes    int64 // slab page bytes holding no record; beside MemBytes, not in it
	PMemUsed     int64
	Hits         int64
	Misses       int64
	Expired      int64
}

// Stats returns a snapshot of counters, folded across shards.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, s := range e.shards {
		s.mu.RLock()
		st.Keys += s.strs.n + len(s.colls)
		st.FreeBytes += s.strs.recs.idle()
		st.IndexBytes += s.strs.charge
		s.mu.RUnlock()
		st.MemBytes += s.memUsed.Load()
		st.PayloadBytes += s.payload.Load()
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Expired += s.expired.Load()
	}
	if e.opts.Arena != nil {
		st.PMemUsed = e.opts.Arena.Used()
	}
	return st
}

// MemUsed returns the DRAM bytes the engine's contents occupy, summed
// across shards: every record at its slot, every index table as
// allocated, and the accounted cost of collections.
func (e *Engine) MemUsed() int64 {
	var total int64
	for _, s := range e.shards {
		total += s.memUsed.Load()
	}
	return total
}

// Len returns the number of keys (including not-yet-swept expired ones).
func (e *Engine) Len() int {
	n := 0
	for _, s := range e.shards {
		s.mu.RLock()
		n += s.strs.n + len(s.colls)
		s.mu.RUnlock()
	}
	return n
}

// SnapEntry is one key in a snapshot walk.
type SnapEntry struct {
	Key      string
	Val      []byte
	Encoded  bool  // Val is a typed collection blob (Encode format)
	ExpireAt int64 // absolute UnixNano deadline; 0 = no TTL
}

// ForEachEncodedChunked is the one snapshot iterator, built for
// replication full-sync snapshots feeding a socket. It visits every live
// key of every kind: strings yield their decoded value, collections a
// typed blob (Encode format) with Encoded set, and every key its deadline
// in ExpireAt. Per stripe it lists the live keys, then alternates two
// steps until the list is done: under a short
// read lock, copy out up to maxChunkBytes (<= 0: 1 MiB) of stored values
// (take) and collection blobs (serialized there); with no lock held,
// decompress the values and hand fn a chunk each time maxChunkBytes of
// keys and decoded values has piled up. A stalled replica socket inside fn
// never blocks writers, and buffered memory stays O(chunk) whatever the
// compression ratio.
//
// Keys deleted between the key listing and their chunk are skipped; a
// key mutated in between yields either value. Callers tolerate both
// by streaming the op log from a position at or before the walk.
// Returning false from fn stops the walk.
func (e *Engine) ForEachEncodedChunked(maxChunkBytes int, fn func(chunk []SnapEntry) bool) error {
	if maxChunkBytes <= 0 {
		maxChunkBytes = 1 << 20
	}
	type pending struct {
		key   string
		at    int64  // the key's deadline
		flags byte   // strings: the record's
		data  []byte // strings: what take copied out
		blob  []byte // collections
	}
	var scratch []byte // compressed values of the batch in hand
	for _, s := range e.shards {
		s.mu.RLock()
		now := e.now()
		keys := make([]string, 0, s.strs.n+len(s.colls))
		s.strs.each(func(rec record) bool {
			if at := rec.deadline(); at == 0 || now < at {
				keys = append(keys, string(rec.parse().key))
			}
			return true
		})
		for k, it := range s.colls {
			if it.expireAt == 0 || now < it.expireAt {
				keys = append(keys, k)
			}
		}
		s.mu.RUnlock()

		var chunk []SnapEntry
		size := 0
		for i := 0; i < len(keys); {
			var batch []pending
			var err error
			held := 0
			scratch = scratch[:0]
			s.mu.RLock()
			for ; i < len(keys) && (len(batch) == 0 || held < maxChunkBytes); i++ {
				en, ok := e.live(s, fnv1a(keys[i]), keys[i])
				if !ok {
					continue // deleted or lapsed since the key listing
				}
				p := pending{key: keys[i]}
				if en.rec != nil {
					f := en.rec.parse()
					p.at = en.rec.deadline()
					p.flags = f.flags
					if p.data, scratch, err = e.take(f.stored, scratch); err != nil {
						break
					}
					held += f.size
				} else if p.blob, ok = encodeCollectionLocked(en.it); ok {
					p.at = en.it.expireAt
					held += len(p.blob)
				} else {
					continue
				}
				batch = append(batch, p)
			}
			s.mu.RUnlock()
			if err != nil {
				return err
			}
			for _, p := range batch {
				val := p.blob
				if val == nil {
					if val, err = e.finish(p.flags, p.data); err != nil {
						return err
					}
				}
				chunk = append(chunk, SnapEntry{Key: p.key, Val: val, Encoded: p.blob != nil, ExpireAt: p.at})
				if size += len(p.key) + len(val); size >= maxChunkBytes {
					if !fn(chunk) {
						return nil
					}
					chunk, size = nil, 0
				}
			}
		}
		if len(chunk) > 0 && !fn(chunk) {
			return nil
		}
	}
	return nil
}

// FlushAll removes every key (FLUSHALL analog, used by tests/benches).
// Each shard is cleared under its own lock; readers of other shards
// proceed while one stripe flushes.
func (e *Engine) FlushAll() {
	for _, s := range e.shards {
		s.mu.Lock()
		if e.opts.Arena != nil {
			s.strs.each(func(rec record) bool {
				e.freeRef(rec.parse().stored)
				return true
			})
		}
		s.strs = index{}
		s.colls = nil
		s.memUsed.Store(0)
		s.payload.Store(0)
		s.mu.Unlock()
	}
}

// --- small helpers ---

func parseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrNotInteger
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
		if len(b) == 1 {
			return 0, ErrNotInteger
		}
	}
	var v int64
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return 0, ErrNotInteger
		}
		v = v*10 + int64(b[i]-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}

func appendInt(out []byte, v int64) []byte {
	if v < 0 {
		out = append(out, '-')
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	if v == 0 {
		return append(out, '0')
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return append(out, buf[i:]...)
}
