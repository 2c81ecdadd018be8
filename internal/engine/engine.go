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
// Every key is one contiguous, pointer-free record (record.go): one byte
// of flags (compressed, PMem ref, has TTL, collection) and key length, the
// key packed (keypack.go: a key of its stripe's shape is its number alone,
// others have their digit runs packed), an 8-byte deadline only if
// a TTL was ever set, then the stored value (or the 12-byte pmem.Ref to
// it), behind its length only if it is raw: a compressed value's codec
// says where it ends. A collection's value is its blob, the form Encode
// returns (collections.go). A string record whose key is of its stripe's
// shape, with no deadline and its value in the engine's plain form, is
// stored without the header byte, which is the same for every such record
// of the stripe: its index entry says so.
//
// Records live in their stripe's slab (slab.go), not in allocations of
// their own: 16 KiB pointer-free pages carved into slots of exactly the
// record's size, a free list per slot size, and a side table of own
// allocations for records past 1 KiB. Each stripe finds its records
// through an open-addressing index (index.go): 5-byte entries of probe
// word, reference bit and slab ref (6 once the stripe's slab passes 4 MiB),
// in hash order with backward-shift deletion, between 9/16 and 7/8 full
// at a steady population, no table at all while the stripe is empty. One
// FNV hash of the key as written picks the stripe with its low bits and,
// Fibonacci-multiplied, the slot. Tables and pages hold no
// pointers, so the garbage collector marks a few hundred objects per engine
// instead of one per key. README.md has the byte-level layout.
//
// # Accounting
//
// MemUsed, ShardMemUsed and Stats().MemBytes are the bytes the engine's
// contents occupy: every record at its slot (own allocations at the Go
// allocator's size class), a collection's as a string's, and every index
// table as allocated. A delete or an eviction takes the record's slot off
// at once. The cache budget, the overload watermark, cost-advisor and the
// perf ledger all read this number, and an empty engine reports 0. Page
// bytes that hold no record (freed slots waiting for the next record of
// their size, the uncarved tail of each stripe's newest page) are
// Stats().FreeBytes; TestMemUsedTracksHeap holds MemBytes + FreeBytes
// within 5% of the Go heap, and TestChargeMatchesHeap MemBytes within 15%
// of it for every kind of key. Stats().PayloadBytes is the part of
// MemBytes that is keys (as stored, packed) and stored values; the rest is
// overhead.
//
// # Recency and eviction
//
// Every resident key has one reference bit: bit 16 of its index entry's
// word, beside the probe word and the ref's low half. A
// read or a write that serves a caller sets it while holding the stripe
// lock it holds anyway, the read lock included: test, then an atomic or.
// Evict is CLOCK over the stripe's own index: a hand walks the slots,
// clears the bits it finds set and removes the first key it finds without
// one that the caller does not pin. There is no list, no second map and no
// second lock: what a key costs is in MemUsed.
//
// # Concurrency
//
// The engine is safe for concurrent use. A stripe's index, slab and
// accounts change only under its write lock; the one
// exception is the reference bit, which readers set (index.touch), so an
// entry's word is loaded atomically under the read lock. Slots are reused, so
// there is one reader rule: nothing that aliases engine-owned storage
// leaves the stripe lock. A value leaves through value, which decodes it
// (or copies it, if it is raw) straight from its slot under the read lock
// into a slice the caller owns; a collection read copies out the elements
// it returns.
package engine

import (
	"bytes"
	"errors"
	"strconv"
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
	ErrOverflow    = errors.New("engine: increment or decrement would overflow")
)

// DefaultShards is the default number of lock stripes.
const DefaultShards = 16

// pmemMin is the smallest stored value, after compression, that goes to
// the arena.
const pmemMin = 64

// Options configures an Engine.
type Options struct {
	// Compressor transparently encodes string values (nil = raw).
	Compressor compress.Compressor
	// CompressMin is the minimum value size to compress (default 16 B).
	CompressMin int
	// Monitor observes compression outcomes for retrain decisions.
	Monitor *compress.Monitor
	// Arena offloads string values of at least pmemMin stored bytes to
	// persistent memory.
	Arena *pmem.Arena
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

// shard is one lock stripe: its own index and slab of records and its
// counters, so hot shards never contend with cold ones (not on the lock,
// not on the stat cachelines).
type shard struct {
	mu   sync.RWMutex
	strs index

	sweepPos atomic.Uint32 // where CollectExpired resumes in strs: the slot hash index.scan returned

	memUsed atomic.Int64 // DRAM bytes the contents occupy; written under mu
	payload atomic.Int64 // keys as written and stored values in DRAM; written under mu (PayloadBytes takes strs.packed off)
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
		e.shards[i] = &shard{strs: newIndex(opts.Compressor)}
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

// FNV-1a's offset basis and prime.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// fnv1a is an inlined, allocation-free FNV-1a over the key bytes.
func fnv1a[K string | []byte](key K) uint32 {
	h := uint32(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime
	}
	return h
}

// probe is a key as the engine looks it up: as written, for the accounts,
// with its hash, and with room to be packed in for the index.
type probe struct {
	key    string
	room   []byte // where lookup packs key, under the stripe lock: room for packRoom(len(key)) bytes (appendPacked)
	h      uint32 // slotHash of the key's fnv1a
	stripe uint32 // the low bits of the same fnv1a
}

// probe hashes key, once, for its stripe and its slot. room is where
// lookup is to pack it: packRoom(len(key)) bytes at least, so that packing
// never moves it.
func (e *Engine) probe(key string, room []byte) probe {
	kh := fnv1a(key)
	return probe{key: key, room: room[:0], h: slotHash(kh), stripe: kh & e.mask}
}

// roomIn is buf, or the heap for a key too long to pack in it.
func roomIn(buf *keyBuf, key string) []byte {
	if n := packRoom(len(key)); n > len(buf) {
		return make([]byte, n)
	}
	return buf[:]
}

// locate hashes key and picks its stripe; lookup packs it into buf, or
// onto the heap if it is too long for that.
func (e *Engine) locate(key string, buf *keyBuf) (probe, *shard) {
	k := e.probe(key, roomIn(buf, key))
	return k, e.shards[k.stripe]
}

// now returns the configured clock's time in unixnanos.
func (e *Engine) now() int64 { return e.opts.Clock().UnixNano() }

// lapsed reports whether a deadline has passed. Keys without one (at == 0)
// never read the clock.
func (e *Engine) lapsed(at int64) bool { return at != 0 && e.now() >= at }

// entry is what a key resolves to in its stripe: its record, or (rec.body
// nil) nothing, and the length of the key packed under the stripe's model.
type entry struct {
	rec  record
	at   int // rec's position in the index
	klen int // of the key packed in its probe's room
}

func (en entry) present() bool { return en.rec.body != nil }

// expireAt is the entry's deadline, 0 when it has none or is absent.
func (en entry) expireAt() int64 {
	if en.rec.body == nil {
		return 0
	}
	return en.rec.deadline()
}

// lookup packs k into its room under the stripe's model and resolves it,
// lapsed or not. Caller holds s.mu (either mode).
func (s *shard) lookup(k probe) entry {
	packed := appendPacked(&s.strs.model, k.room, k.key)
	at, rec := s.strs.find(k.h, packed)
	return entry{rec: rec, at: at, klen: len(packed)}
}

// touch marks en, which lookup returned, referenced: the clock hand gives
// it another lap before Evict may take it. Reads and writes that serve a
// caller touch; existence probes, TTL changes and snapshot walks do not.
// Caller holds s.mu (either mode).
func (s *shard) touch(en entry) { s.strs.touch(en.at) }

// live is lookup honoring lazy expiration: ok is false for a lapsed entry
// as for an absent one, but the lapsed entry is still returned, so that a
// write replaces it (publish) rather than adding a second record of its
// key. Caller holds s.mu.
func (e *Engine) live(s *shard, k probe) (en entry, ok bool) {
	en = s.lookup(k)
	return en, en.present() && !e.lapsed(en.expireAt())
}

// --- publishing and removing entries (caller holds s.mu write lock) ---

// freeRef returns a value's PMem, if that is where it lives, to the arena.
func (e *Engine) freeRef(st stored) {
	if st.flags&flagPMem != 0 {
		e.opts.Arena.Free(st.ref())
	}
}

// forget takes the payload of the record whose fields are f, and whose key
// is klen bytes as written, out of the accounts and frees the PMem its
// value occupies. The caller then takes the record out of the index, which
// frees its slot, and settles memUsed.
func (e *Engine) forget(s *shard, f fields, klen int) {
	e.freeRef(f.stored)
	s.payload.Add(-payload(f.flags, klen, len(f.val)))
}

// remove deletes en, which lookup returned.
func (e *Engine) remove(s *shard, en entry) {
	e.removeRecord(s, en.at, s.strs.parse(en.rec))
}

// removeRecord deletes the key in slot at, whose record parsed to f.
func (e *Engine) removeRecord(s *shard, at int, f fields) {
	held := s.strs.held()
	klen := s.strs.model.unpackedLen(f.key)
	e.forget(s, f, klen)
	s.strs.packed -= int64(klen - len(f.key))
	s.strs.remove(at, f.size)
	s.memUsed.Add(s.strs.held() - held)
}

// publish makes st the value of k, and its deadline the one st carries
// (none, for a string). en is what lookup (or live) found for k under this
// same write lock, and packed k for: its record, live or lapsed, is
// replaced; where it found none, the record is inserted (and re-packed, if
// the insert changes the model). The record is assembled in its slot,
// bare or not as its stripe's rule says (index.store): no allocation
// unless a page or a table has to grow.
func (e *Engine) publish(s *shard, k probe, en entry, st staged) {
	ix := &s.strs
	held := ix.held()
	ref := ix.store(k.room[:en.klen], st) // where lookup packed it
	if en.present() {
		old := ix.parse(en.rec)
		e.forget(s, old, len(k.key))
		ix.touch(en.at) // before replace, which may move entries
		ix.replace(en.at, ref, old.size)
	} else {
		ix.packed += int64(len(k.key) - en.klen)
		ix.insert(k.h, ref)
	}
	s.payload.Add(payload(st.flags, len(k.key), len(st.val)))
	s.memUsed.Add(ix.held() - held)
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
	if a := e.opts.Arena; a != nil && len(st.val) >= pmemMin {
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
	if st.flags&flagCompressed != 0 {
		return e.opts.Compressor.Decompress(data)
	}
	return data, nil
}

// value is the one way a value leaves the engine: its logical bytes, in a
// slice the caller owns, decoded under s.mu (which the caller holds)
// straight from the slot. A compressed value's decoding and a PMem value's
// Arena.Get are fresh slices already; a raw value in DRAM is copied, never
// to nil, as a present empty value must stay distinguishable from an absent
// key.
func (e *Engine) value(st stored) ([]byte, error) {
	if st.flags&(flagCompressed|flagPMem) == 0 {
		return clone(st.val), nil
	}
	return e.view(st)
}

// --- string operations ---

// Set stores a string value, clearing any TTL.
func (e *Engine) Set(key string, val []byte) error {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	st := e.encode(val)
	s.mu.Lock()
	e.publish(s, k, s.lookup(k), st)
	s.mu.Unlock()
	return nil
}

// SetNX stores val only if key is absent; reports whether it stored.
func (e *Engine) SetNX(key string, val []byte) (bool, error) {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	_, live := e.live(s, k)
	s.mu.RUnlock()
	if live {
		return false, nil
	}
	// Encode outside the lock; wasted work only when a concurrent SetNX
	// wins the race below, which the write-locked re-check detects.
	st := e.encode(val)
	s.mu.Lock()
	defer s.mu.Unlock()
	en, live := e.live(s, k)
	if live {
		e.discard(st)
		return false, nil
	}
	e.publish(s, k, en, st)
	return true, nil
}

// Get fetches a string value, decoded under the stripe read lock (value).
func (e *Engine) Get(key string) ([]byte, error) {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	defer s.mu.RUnlock()
	en, ok := e.live(s, k)
	if !ok {
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	if en.rec.isColl() {
		return nil, ErrWrongType
	}
	s.touch(en)
	s.hits.Add(1)
	return e.value(s.strs.parse(en.rec).stored)
}

// Del removes keys; returns how many existed. Multi-key deletes group by
// shard and take each stripe lock once (see BatchDel).
func (e *Engine) Del(keys ...string) int { return e.BatchDel(keys) }

// Exists reports whether key is live.
func (e *Engine) Exists(key string) bool {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := e.live(s, k)
	return ok
}

// Type returns the kind of key (KindNone if absent).
func (e *Engine) Type(key string) Kind {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch en, ok := e.live(s, k); {
	case !ok:
		return KindNone
	case !en.rec.isColl():
		return KindString
	default:
		return blobColl(s.strs.parse(en.rec).val).kind
	}
}

// CompareAndSet replaces key's value with newVal only if the current value
// equals oldVal (the paper's CAS operation). oldVal nil means "key absent".
func (e *Engine) CompareAndSet(key string, oldVal, newVal []byte) error {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	// Pre-encode outside the lock; wasted work only on mismatch.
	st := e.encode(newVal)
	s.mu.Lock()
	defer s.mu.Unlock()
	en, err := e.casCheck(s, k, oldVal)
	if err != nil {
		e.discard(st)
		return err
	}
	e.publish(s, k, en, st)
	return nil
}

// casCheck reports whether key currently holds oldVal (nil = is absent),
// and returns what live found for it. Caller holds s.mu.
func (e *Engine) casCheck(s *shard, k probe, oldVal []byte) (entry, error) {
	en, ok := e.live(s, k)
	if !ok {
		if oldVal != nil {
			return en, ErrCASMismatch
		}
		return en, nil
	}
	if en.rec.isColl() {
		return en, ErrWrongType
	}
	cur, err := e.view(s.strs.parse(en.rec).stored)
	if err != nil {
		return en, err
	}
	if oldVal == nil || !bytes.Equal(cur, oldVal) {
		return en, ErrCASMismatch
	}
	return en, nil
}

// IncrBy adds delta to the integer value at key (0 if absent). A stored
// value outside int64 is ErrNotInteger, and a sum outside it is
// ErrOverflow; either leaves the value as it was.
func (e *Engine) IncrBy(key string, delta int64) (int64, error) {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur int64
	en, ok := e.live(s, k)
	if ok {
		if en.rec.isColl() {
			return 0, ErrWrongType
		}
		raw, err := e.view(s.strs.parse(en.rec).stored)
		if err != nil {
			return 0, err
		}
		if cur, err = strconv.ParseInt(string(raw), 10, 64); err != nil {
			return 0, ErrNotInteger
		}
	}
	sum := cur + delta
	if (sum > cur) != (delta > 0) {
		return 0, ErrOverflow
	}
	// Counters are never compressed or offloaded.
	var buf [20]byte
	e.publish(s, k, en, staged{val: strconv.AppendInt(buf[:0], sum, 10)})
	return sum, nil
}

// --- TTL ---

// ExpireAt sets an absolute expiry deadline (UnixNano on the engine's
// clock); reports whether the key existed. Replication uses this form:
// an op applied seconds late on a slow replica must expire the key at
// the master's wall-clock instant, not late-arrival + TTL.
func (e *Engine) ExpireAt(key string, at int64) bool {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := e.live(s, k)
	if !ok {
		return false
	}
	switch {
	case en.rec.head&flagTTL != 0:
		en.rec.setDeadline(at)
	case at != 0:
		// First TTL on this record: move it to a slot with room for the
		// deadline, and for its header byte if it was bare. The copy
		// carries the same value (or PMem ref), so only the record's own
		// bytes change hands.
		ix := &s.strs
		held := ix.held()
		f := ix.parse(en.rec)
		ref, rec := ix.alloc(f.size - en.rec.headLen() + 1 + 8)
		en.rec.withDeadline(rec, f, at)
		ix.replace(en.at, ref, f.size)
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
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.Lock()
	defer s.mu.Unlock()
	en := s.lookup(k)
	if !e.lapsed(en.expireAt()) {
		return false
	}
	e.remove(s, en)
	s.expired.Add(1)
	return true
}

// Expired reports whether key is resident with a lapsed TTL: a key
// TakeExpired would take. Read lock only.
func (e *Engine) Expired(key string) bool {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return e.lapsed(s.lookup(k).expireAt())
}

// CollectExpired looks at the next limit or so keys of the engine and returns
// those whose TTL has lapsed but whose entries still occupy their stripe
// (the active expiration cycle; lazy expiry handles access). It resumes where
// the last call stopped, stripe after stripe and in hash order, so calls
// with a small limit cover the keyspace between them; one call enters each
// stripe at most once. Read locks only — the caller confirms and deletes
// each key through TakeExpired (directly or via the tiered delete-through
// path), which rechecks under the write lock so a concurrent PERSIST or
// overwrite wins the race.
//
// In a stripe with an index resize under way the sweep also moves as many
// entries across as it looked at (settle), so that a stripe that is no
// longer written does not keep both tables.
func (e *Engine) CollectExpired(limit int) []string {
	var out []string
	now := e.now()
	for n := len(e.shards); n > 0 && limit > 0; n-- {
		s := e.shards[e.sweepCursor.Load()&e.mask]
		s.mu.RLock()
		before := limit
		pos, end := s.strs.scan(s.sweepPos.Load(), &limit, func(rec record) {
			if at := rec.deadline(); at != 0 && now >= at {
				out = append(out, s.strs.model.unpackKey(rec.key()))
			}
		})
		resizing := s.strs.old.words != nil
		s.sweepPos.Store(pos)
		if end {
			e.sweepCursor.Add(1)
		}
		s.mu.RUnlock()
		if resizing {
			s.settle(before - limit)
		}
	}
	return out
}

// settle moves up to k (and at least moves) entries of the index resize
// under way in s across, moves at a time under the write lock, as that many
// writes would.
func (s *shard) settle(k int) {
	for done := 0; done == 0 || done < k; done += moves {
		s.mu.Lock()
		ix := &s.strs
		if ix.old.words == nil {
			s.mu.Unlock()
			return
		}
		held := ix.held()
		ix.migrate(moves)
		s.memUsed.Add(ix.held() - held)
		s.mu.Unlock()
	}
}

// Persist clears a TTL; reports whether the key existed.
func (e *Engine) Persist(key string) bool { return e.ExpireAt(key, 0) }

// TTL returns the remaining lifetime; (0, false) if absent or no TTL.
func (e *Engine) TTL(key string) (time.Duration, bool) {
	var kb keyBuf
	k, s := e.locate(key, &kb)
	s.mu.RLock()
	defer s.mu.RUnlock()
	at := s.lookup(k).expireAt()
	now := e.now()
	if at == 0 || now >= at {
		return 0, false
	}
	return time.Duration(at - now), true
}

// --- eviction ---

// Evict removes one key from stripe i, or reports false when the stripe
// holds nothing it may remove. It is CLOCK over the stripe's own index: a
// hand walks it in slot order and around again; a key read or written
// since the hand last passed it (touch) loses its mark and stays for
// another lap, and the hand does not so much as read its record; an
// unmarked key that pinned (nil: none is) holds is passed over, and the
// first key with neither excuse goes. The hand stays
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
	lap := s.strs.n
	for look := lap; look > 0; {
		at, victim, end := s.strs.clock(&look, lap, pinned)
		if at >= 0 {
			e.removeRecord(s, at, victim)
			return true
		}
		if !end {
			break
		}
	}
	return false
}

// --- introspection ---

// Stats summarizes engine state.
type Stats struct {
	Keys         int
	MemBytes     int64 // DRAM occupied: records and index tables
	PayloadBytes int64 // the part of MemBytes that is keys as stored (packed) and stored values
	PackedBytes  int64 // what packing, under each stripe's key model, took off the keys: PayloadBytes with them as written is this much more
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
		st.Keys += s.strs.n
		st.FreeBytes += s.strs.recs.idle()
		st.IndexBytes += s.strs.charge
		st.PackedBytes += s.strs.packed
		st.PayloadBytes += s.payload.Load() - s.strs.packed
		s.mu.RUnlock()
		st.MemBytes += s.memUsed.Load()
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
// across shards: every record at its slot and every index table as
// allocated.
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
		n += s.strs.n
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
// in ExpireAt. Per stripe it lists the live keys, then fills one chunk at a
// time under a short read lock, taking each key's value out (value) until
// maxChunkBytes (<= 0: 1 MiB) of keys and decoded values has piled up, and
// hands fn the chunk with no lock held. A stalled replica socket inside fn
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
	for _, s := range e.shards {
		s.mu.RLock()
		now := e.now()
		keys := make([]string, 0, s.strs.n)
		s.strs.each(func(rec record) bool {
			if at := rec.deadline(); at == 0 || now < at {
				keys = append(keys, s.strs.model.unpackKey(rec.key()))
			}
			return true
		})
		s.mu.RUnlock()

		for len(keys) > 0 {
			var chunk []SnapEntry
			var err error
			s.mu.RLock()
			for size := 0; len(keys) > 0 && size < maxChunkBytes; keys = keys[1:] {
				var kb keyBuf
				en, ok := e.live(s, e.probe(keys[0], roomIn(&kb, keys[0])))
				if !ok {
					continue // deleted or lapsed since the key listing
				}
				f := s.strs.parse(en.rec)
				var val []byte
				if val, err = e.value(f.stored); err != nil {
					break
				}
				chunk = append(chunk, SnapEntry{Key: keys[0], Val: val, Encoded: en.rec.isColl(), ExpireAt: f.deadline})
				size += len(keys[0]) + len(val)
			}
			s.mu.RUnlock()
			if err != nil {
				return err
			}
			if len(chunk) > 0 && !fn(chunk) {
				return nil
			}
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
				e.freeRef(s.strs.parse(rec).stored)
				return true
			})
		}
		s.strs = newIndex(s.strs.codec)
		s.memUsed.Store(0)
		s.payload.Store(0)
		s.mu.Unlock()
	}
}
