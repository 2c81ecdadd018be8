package cache

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/engine"
	"tierbase/internal/replication"
)

// Policy selects how the cache tier synchronizes with the storage tier.
type Policy int

// Policies.
const (
	// CacheOnly disables the storage tier (pure in-memory mode, the
	// Redis/Memcached-style deployment).
	CacheOnly Policy = iota
	// WriteThrough synchronously writes to storage before acking (§4.1.1);
	// best for read-heavy workloads needing high reliability.
	WriteThrough
	// WriteBack acks from the cache tier and flushes dirty data to storage
	// asynchronously in batches (§4.1.2); best for write-heavy workloads.
	WriteBack
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return "cache-only"
	}
}

// Options configures a Tiered store.
type Options struct {
	Policy  Policy
	Engine  *engine.Engine
	Storage Storage // required unless CacheOnly
	// CacheCapacityBytes bounds the cache tier's DRAM use (eng.MemUsed());
	// 0 = unbounded. One budget for the whole store, whichever stripes the
	// bytes land on. This is the knob behind the paper's cache-ratio (NX)
	// configurations.
	CacheCapacityBytes int64
	// FlushBatch is the write-back dirty batch size (default 128). The
	// dirty set's budget is maxDirtyBatches of them: a writer that finds
	// that many keys dirty waits for the flusher (backpressure).
	FlushBatch int
	// FlushInterval is the max time dirty data waits (default 50 ms).
	FlushInterval time.Duration
	// DegradedProbeInterval is how often a degraded store probes its
	// storage tier for recovery (default 500 ms). See health.go.
	DegradedProbeInterval time.Duration
}

// maxDirtyBatches is the dirty set's budget in flush batches.
const maxDirtyBatches = 8

func (o *Options) fill() {
	if o.FlushBatch <= 0 {
		o.FlushBatch = 128
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.DegradedProbeInterval <= 0 {
		o.DegradedProbeInterval = 500 * time.Millisecond
	}
}

// Tiered is the tiered store: engine cache in front of pluggable storage.
type Tiered struct {
	opts Options
	eng  *engine.Engine

	// evictHand is the shard-wide eviction hand: the engine stripe the last
	// eviction step was taken from. Recency lives in the engine: see
	// maybeEvict.
	evictHand atomic.Uint32

	// pinned[i] is what maybeEvict hands engine.Evict for stripe i: the keys
	// that must stay resident, which are the dirty ones (write-back) and the
	// one an in-place mutation is working on (mutating[i], set by pin; the
	// RMW lock admits one per stripe). Bound once, so an eviction step
	// allocates no closure.
	pinned   []func(key []byte) bool
	mutating []atomic.Pointer[string]

	// dirty is the write-back backlog (writeback.go); empty under the other
	// policies.
	dirty *dirtySet
	// flushMu serializes whole flush rounds (collect → BatchPut → clear).
	// Two interleaved rounds (background flusher vs an explicit
	// FlushDirty) could otherwise land a stale value in storage after a
	// newer one: both collect k, the newer round commits and clears, then
	// the stale round's BatchPut overwrites it with the older value.
	flushMu sync.Mutex

	// Per-stripe RMW locks: the one per-key ordering rule. rmw[i] covers
	// every key in engine stripe i, and every change to a key's cache-tier
	// state, whether a write or a fill, holds its stripe's lock: a write
	// from before the storage write (or dirty-mark) until after the sink
	// call, a fill from before its storage read until after the admission.
	// Holders of several (batches, FlushAll) acquire in ascending index.
	// See lockKey / lockKeys.
	rmw []sync.Mutex

	// Replication sink (see sink.go); nil when replication is off.
	sink OpSink

	// Storage-tier health: failure counters and the degraded-mode state
	// machine behind store (health.go); zero under CacheOnly.
	health storageHealth

	stopCh chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// stats
	reqs      atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	flushed   atomic.Int64
	batches   atomic.Int64
	flShared  atomic.Int64 // misses that found their key filled after waiting for its stripe
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("cache: closed")

// copyBytes clones b, preserving nilness: nil stays nil (absent /
// tombstone), empty stays empty non-nil (a present empty value). The
// usual append([]byte(nil), b...) idiom collapses empty to nil, which in
// write-back dirty state silently turns an empty value into a delete.
func copyBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// New builds a Tiered store and starts its background loops.
func New(opts Options) (*Tiered, error) {
	t, err := build(opts)
	if err != nil {
		return nil, err
	}
	if t.opts.Policy == WriteBack {
		t.wg.Add(1)
		go t.flushLoop()
	}
	t.wg.Add(1)
	go t.expirySweepLoop()
	return t, nil
}

// build is New without the background loops: the write-back flusher and
// the expiry sweep.
func build(opts Options) (*Tiered, error) {
	opts.fill()
	if opts.Engine == nil {
		return nil, errors.New("cache: Engine required")
	}
	if opts.Policy != CacheOnly && opts.Storage == nil {
		return nil, errors.New("cache: Storage required for tiered policies")
	}
	t := &Tiered{
		opts:   opts,
		eng:    opts.Engine,
		dirty:  newDirtySet(maxDirtyBatches * opts.FlushBatch),
		stopCh: make(chan struct{}),
	}
	nsh := opts.Engine.NumShards()
	t.rmw = make([]sync.Mutex, nsh)
	t.mutating = make([]atomic.Pointer[string], nsh)
	t.pinned = make([]func([]byte) bool, nsh)
	writeBack := opts.Policy == WriteBack
	for i := range t.pinned {
		inFlight := &t.mutating[i]
		t.pinned[i] = func(key []byte) bool {
			if k := inFlight.Load(); k != nil && *k == string(key) {
				return true
			}
			return writeBack && t.dirty.holds(key)
		}
	}
	return t, nil
}

// --- capacity eviction ---

// maybeEvict brings the cache tier back inside CacheCapacityBytes: one
// budget for the whole store, checked against eng.MemUsed(), and one hand
// that goes round the engine's stripes. While over budget it takes the next
// non-empty stripe and evicts one key there. Which key is the engine's call
// (engine.Evict: a clock hand over the stripe's own index, past the keys
// read or written since it last came by). Every stripe so loses keys at the
// same rate and admits them at its own miss rate, and residency settles
// where the stripes' miss rates are equal: a stripe that holds the hot keys
// grows at the cost of those that hold none.
//
// Dirty keys are pinned: they must reach storage first, and because the
// check runs under the engine's stripe lock a key cannot turn dirty between
// the check and its removal. So is the key of a Mutate in flight, whose
// outcome is read back from the engine (rmw.go). A stripe whose every
// resident key is pinned gives up after a lap of its own and the hand goes
// on to the next; the attempt ends when a whole round of the stripes has
// evicted nothing, and the flusher's next round unpins the rest.
func (t *Tiered) maybeEvict() {
	capacity := t.opts.CacheCapacityBytes
	if capacity <= 0 {
		return
	}
	if t.opts.Policy == WriteBack && t.eng.MemUsed() > capacity && t.dirty.live() >= t.eng.Len() {
		// Every resident key is dirty (the backlog bound exceeds the cache):
		// the hand would walk a full lap under a stripe's write lock and
		// evict nothing. The flusher's next round unpins them.
		return
	}
	n := uint32(len(t.pinned))
	for idle := uint32(0); idle < n && t.eng.MemUsed() > capacity; {
		si := int(t.evictHand.Add(1) % n)
		// An empty stripe costs an atomic load and no lock; one whose every
		// key is pinned, a lap of its own.
		if t.eng.ShardMemUsed(si) == 0 || !t.eng.Evict(si, t.pinned[si]) {
			idle++
			continue
		}
		idle = 0
		t.evictions.Add(1)
	}
}

// --- reads ---

// Get returns the value for key, consulting the cache tier first and, on a
// miss, the storage tier (miss, populating the cache on the way back).
func (t *Tiered) Get(key string) (val []byte, err error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	t.reqs.Add(1)
	val, err = t.eng.Get(key)
	if err == nil {
		t.hits.Add(1)
		return val, nil
	} else if err == engine.ErrWrongType {
		return nil, err
	}
	t.misses.Add(1)
	t.miss([]string{key}, func(_ string, v []byte, e error) { val, err = v, e })
	return val, err
}

// miss is the one miss leg of Get and BatchGet: it answers the keys the
// cache tier did not hold — distinct keys, none a live collection — with one
// call of answer per key: the value, or ErrNotFound, engine.ErrWrongType (a
// collection) or a storage error; a degraded storage tier answers absent.
// Cache-only has no other tier to ask; the other policies fill the keys
// under the RMW locks of their stripes (fill).
//
// miss reuses keys' array.
func (t *Tiered) miss(keys []string, answer func(key string, val []byte, err error)) {
	if t.opts.Policy == CacheOnly {
		for _, k := range keys {
			answer(k, nil, ErrNotFound)
		}
		return
	}
	defer t.unlock(t.lockKeys(keys))
	t.fill(keys, func(k string, v []byte, err error) {
		if errors.Is(err, ErrDegraded) {
			err = ErrNotFound // the cache tier is the best answer left
		}
		answer(k, v, err)
	})
}

// fill brings keys from the storage tier into the cache tier and answers
// each as miss does, except that a degraded storage tier answers
// ErrDegraded. The caller holds the RMW lock of every stripe the keys
// touch, so no write of them lands between the storage read and the
// admission, and a fill never overwrites a newer write. In order:
//
//  1. A key the engine now holds — another caller filled or wrote it while
//     this one waited for the lock — is answered from there and counted in
//     Stats.Shared.
//  2. A key whose TTL lapsed while resident is deleted through every tier
//     (expireThrough) and is absent: a storage copy or a dirty write of it
//     would otherwise answer for it with no deadline.
//  3. Write-back: an unflushed value or delete of the key wins over what
//     storage still holds.
//  4. The rest make one storage round trip, Get for one key and BatchGet
//     for more, and are admitted (admit); then the cache tier is brought
//     back within its budget.
//
// fill reuses keys' array.
func (t *Tiered) fill(keys []string, answer func(key string, val []byte, err error)) {
	cold := keys[:0]
	for _, k := range keys {
		if t.eng.Exists(k) { // not Get: that would count an engine miss twice
			if v, err := t.eng.Get(k); err != engine.ErrNotFound {
				t.flShared.Add(1)
				answer(k, v, err)
				continue
			}
		}
		if t.eng.Expired(k) && t.expireThrough(k) {
			answer(k, nil, ErrNotFound)
			continue
		}
		if t.opts.Policy == WriteBack {
			if e, ok := t.dirty.lookup(k); ok {
				switch {
				case e.val == nil:
					answer(k, nil, ErrNotFound)
				case e.enc:
					answer(k, nil, engine.ErrWrongType)
				default:
					answer(k, copyBytes(e.val), nil)
				}
				continue
			}
		}
		cold = append(cold, k)
	}
	switch len(cold) {
	case 0:
		return
	case 1:
		var v []byte
		var ok bool
		err := t.store(true, func(s Storage) (err error) {
			v, ok, err = s.Get(cold[0])
			return err
		})
		v, err = t.admit(cold[0], v, ok, err)
		answer(cold[0], v, err)
	default:
		var vals map[string][]byte
		err := t.store(true, func(s Storage) (err error) {
			vals, err = s.BatchGet(cold)
			return err
		})
		for _, k := range cold {
			v, ok := vals[k]
			v, e := t.admit(k, v, ok, err)
			answer(k, v, e)
		}
	}
	t.maybeEvict()
}

// admit takes key's storage answer (ok: present) into the cache tier and
// returns what the reader is answered: a present value is set in the
// engine, and a typed blob loads as the collection it encodes, which
// string readers see as the wrong type.
func (t *Tiered) admit(key string, v []byte, ok bool, err error) ([]byte, error) {
	switch {
	case err != nil:
		return nil, err
	case !ok:
		return nil, ErrNotFound
	case engine.IsTypedValue(v):
		if err := t.eng.LoadEncoded(key, v); err != nil {
			return nil, err
		}
		return nil, engine.ErrWrongType
	}
	if v == nil {
		v = []byte{} // present empty value, not absent
	}
	v = engine.UnescapeStringValue(v)
	t.eng.Set(key, v)
	return v, nil
}

// expireThrough confirms key's TTL has lapsed and, if so, deletes it
// through every tier: the engine drops it here and commit carries the
// delete to storage and the sink like any other. The caller holds the key's
// RMW stripe lock. Reports whether an expired key was taken. TakeExpired
// rechecks under the engine write lock, so a concurrent PERSIST or
// overwrite wins the race and no live value is deleted.
func (t *Tiered) expireThrough(key string) bool {
	if !t.eng.TakeExpired(key) {
		return false
	}
	// Best-effort storage delete: the key is already gone from the cache
	// tier either way. A write-through failure leaves the storage copy
	// behind (it can resurrect once more until the next delete-through
	// attempt) and is not replicated — replicas hold the same absolute
	// deadline and expire the key themselves; the health counters record
	// the error.
	_ = t.commit([]write{{key: key, pre: true}}, nil)
	return true
}

// Active expiry: every expirySweepInterval the sweep looks at the next
// expirySweepVisits keys of the engine and deletes the lapsed ones through
// every tier, so a TTL'd key nobody reads again gives its memory back, and
// its storage copy goes with it. While a quarter or more of a round's keys
// had lapsed it goes straight on to the next round (Redis's activeExpireCycle
// rule), so a mass expiry does not wait out a lap at the idle rate.
const (
	expirySweepInterval = 100 * time.Millisecond
	expirySweepVisits   = 1024
)

func (t *Tiered) expirySweepLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(expirySweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-ticker.C:
		}
		for again := true; again && !t.closed.Load(); {
			lapsed := t.eng.CollectExpired(expirySweepVisits)
			for _, k := range lapsed {
				mu := t.lockKey(k)
				t.expireThrough(k)
				mu.Unlock()
			}
			again = len(lapsed)*4 >= expirySweepVisits
		}
	}
}

// --- writes ---

// lockKey takes the RMW lock of key's stripe and returns it for the
// caller to release: defer t.lockKey(key).Unlock().
func (t *Tiered) lockKey(key string) *sync.Mutex {
	mu := &t.rmw[t.eng.ShardIndex(key)]
	mu.Lock()
	return mu
}

// stripes is a set of RMW stripes: stripe si is bit si%64. Up to 64
// stripes (the engine's default is 16) the set is exact; past that a bit
// stands for every stripe congruent to it, which only locks more. It is a
// value, so taking and releasing a batch's locks allocates nothing.
type stripes uint64

// allStripes is every stripe: FlushAll's set.
const allStripes = ^stripes(0)

// stripe is the set holding key's stripe.
func (t *Tiered) stripe(key string) stripes {
	return 1 << (t.eng.ShardIndex(key) % 64)
}

// lockKeys takes the RMW lock of every stripe keys touch and returns the
// set for unlock: defer t.unlock(t.lockKeys(keys)).
func (t *Tiered) lockKeys(keys []string) stripes {
	var s stripes
	for _, k := range keys {
		s |= t.stripe(k)
	}
	t.lock(s)
	return s
}

// lock takes the RMW lock of every stripe in s, in ascending index order:
// the order every holder of several uses, so none deadlock.
func (t *Tiered) lock(s stripes) {
	for si := range t.rmw {
		if s&(1<<(si%64)) != 0 {
			t.rmw[si].Lock()
		}
	}
}

// unlock releases what lock(s) took.
func (t *Tiered) unlock(s stripes) {
	for si := range t.rmw {
		if s&(1<<(si%64)) != 0 {
			t.rmw[si].Unlock()
		}
	}
}

// write is one key's committed outcome: its new value (nil deletes), whether
// that is a typed collection blob, and whether the engine holds it already
// (pre: Mutate, SetEncoded), in which case commit does not apply it again.
type write struct {
	key      string
	val      []byte
	enc, pre bool
}

// commit is the one route committed writes take, one key or a batch: to
// storage by policy (write-through: one synchronous call, wtCommit;
// write-back: one dirty-set admission; cache-only: nowhere), to the cache
// tier, and — once that succeeded — to the sink, one op per write. entries
// is BatchPut's own map, which write-through hands to storage; nil otherwise.
//
// The caller holds the RMW lock of every stripe ws touches, so for any one
// key the engine, storage and the sink see writes in the same order.
func (t *Tiered) commit(ws []write, entries map[string][]byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	var err error
	dirty := 0
	switch t.opts.Policy {
	case WriteThrough:
		err = t.wtCommit(ws, entries)
	case WriteBack:
		dirty, err = t.dirty.mark(ws)
	}
	if err != nil {
		return err
	}
	t.applyToCache(ws)
	if dirty >= t.opts.FlushBatch {
		t.dirty.nudge()
	}
	if t.sink != nil {
		for _, w := range ws {
			op := replication.Op{Kind: replication.OpDel, Key: w.key}
			if w.val != nil {
				op = replication.SetOp(w.key, w.val, w.enc)
			}
			t.sink.Replicate(op)
		}
	}
	return nil
}

// applyToCache lands committed writes on the engine — Set or Del for one
// key, the striped MSet and BatchDel for a batch — but for pre ones, whose
// replay could roll back a newer concurrent update; then it evicts.
func (t *Tiered) applyToCache(ws []write) {
	if len(ws) == 1 {
		switch w := ws[0]; {
		case w.pre:
		case w.val == nil:
			t.eng.Del(w.key)
		default:
			t.eng.Set(w.key, w.val)
		}
	} else {
		var kvs []engine.KV
		var dels []string
		for _, w := range ws {
			switch {
			case w.pre:
			case w.val == nil:
				dels = append(dels, w.key)
			default:
				if kvs == nil {
					kvs = make([]engine.KV, 0, len(ws))
				}
				kvs = append(kvs, engine.KV{Key: w.key, Val: w.val})
			}
		}
		t.eng.MSet(kvs)
		t.eng.BatchDel(dels)
	}
	t.maybeEvict()
}

// Set stores key=val according to the configured policy.
//
// Set holds the key's RMW stripe lock for the whole write (like
// INCR/SETNX/CAS do via Mutate), so a SET racing an RMW op on the same
// key reaches the engine, the storage write path and the replication
// sink in one consistent order; replication correctness depends on
// per-key sink order matching engine order.
func (t *Tiered) Set(key string, val []byte) error {
	t.reqs.Add(1)
	if val == nil {
		val = []byte{} // a present empty value, not a delete
	}
	defer t.lockKey(key).Unlock()
	return t.commit([]write{{key: key, val: val}}, nil)
}

// Delete removes key according to the configured policy, under the key's
// RMW stripe lock like Set.
func (t *Tiered) Delete(key string) error {
	t.reqs.Add(1)
	defer t.lockKey(key).Unlock()
	return t.commit([]write{{key: key}}, nil)
}

// Update is the read-modify-write entry point: fn receives the current
// string value (or exists=false) and returns the new value (nil deletes). It
// is a Mutate (rmw.go) whose op reads the engine, calls fn and sets or
// deletes there, so it locks, pins, fills and commits as INCR or CAS do:
// concurrent Updates of one key never lose a write, a key whose TTL has
// lapsed is absent, and a key that holds a collection is ErrWrongType. fn
// must not call back into the store.
func (t *Tiered) Update(key string, fn func(old []byte, exists bool) []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	return t.Mutate(key, func() (bool, error) {
		old, err := t.eng.Get(key)
		if err != nil && err != engine.ErrNotFound {
			return false, err
		}
		exists := err == nil
		newVal := fn(old, exists)
		if newVal == nil {
			return exists && t.eng.Del(key) > 0, nil
		}
		return true, t.eng.Set(key, newVal)
	})
}

// ExpireAt sets key's TTL as an absolute UnixNano deadline, under the
// key's RMW stripe lock so the TTL change orders against writes and the
// replication sink. A key that lives only in the storage tier is filled
// under the lock first (hold, rmw.go: TTLs are cache-tier state). Reports
// whether the key existed; a failed fill reports false and sets nothing.
// The deadline is absolute on the wire too
// (OpExpire): replicas applying the op late still expire the key at the
// same instant the master did. A key's first TTL grows its record by the
// deadline, so ExpireAt evicts back within the budget as a write does.
func (t *Tiered) ExpireAt(key string, at int64) bool {
	if t.closed.Load() {
		return false
	}
	si, err := t.hold(key)
	defer t.release(si)
	if err != nil || !t.eng.ExpireAt(key, at) {
		return false
	}
	t.maybeEvict()
	if t.sink != nil {
		t.sink.Replicate(replication.ExpireOp(key, at))
	}
	return true
}

// Persist clears key's TTL under its RMW stripe lock, faulting the key in
// like ExpireAt; reports whether the key existed, and false if the fill
// failed.
func (t *Tiered) Persist(key string) bool {
	if t.closed.Load() {
		return false
	}
	si, err := t.hold(key)
	defer t.release(si)
	if err != nil || !t.eng.Persist(key) {
		return false
	}
	if t.sink != nil {
		t.sink.Replicate(replication.Op{Kind: replication.OpPersist, Key: key})
	}
	return true
}

// FlushAll clears every tier: the cache engine, the write-back dirty set
// (unflushed data is moot once the keyspace is gone) and the storage tier —
// without the storage clear, flushed keys resurrect from storage on their
// next miss.
//
// It takes every RMW stripe lock (in index order, the same order any
// multi-stripe path must use) for the whole operation, which excludes
// every in-flight commit, single-key or batch, and gives the replication
// sink a clean point in the op order.
func (t *Tiered) FlushAll() error {
	if t.closed.Load() {
		return ErrClosed
	}
	t.lock(allStripes)
	defer t.unlock(allStripes)

	if t.opts.Policy == WriteBack {
		// Drop dirty state under flushMu so a concurrent flush round
		// can't commit collected-but-now-cleared entries after us.
		t.flushMu.Lock()
		t.dirty.reset()
		t.flushMu.Unlock()
	}

	t.eng.FlushAll()

	var err error
	if t.opts.Policy != CacheOnly {
		err = t.store(false, FlushStorage)
	}
	if t.sink != nil {
		t.sink.Replicate(replication.Op{Kind: replication.OpFlushAll})
	}
	return err
}

// Health reports storage-tier health (failure and degradation counters);
// the zero value under CacheOnly, which has no storage tier.
func (t *Tiered) Health() HealthStats { return t.health.snapshot() }

// --- stats ---

// Stats summarizes tiered-store behavior for cost measurement.
type Stats struct {
	Requests          int64
	Hits              int64
	Misses            int64
	Evictions         int64
	Flushed           int64 // write-back entries flushed
	Batches           int64 // write-back flush round trips
	Shared            int64 // misses that found their key filled after waiting for its stripe
	BackpressureWaits int64 // write-back writers that found the dirty set full
	Dirty             int   // current dirty entries
}

// Stats returns a snapshot of counters.
func (t *Tiered) Stats() Stats {
	return Stats{
		Requests:          t.reqs.Load(),
		Hits:              t.hits.Load(),
		Misses:            t.misses.Load(),
		Evictions:         t.evictions.Load(),
		Flushed:           t.flushed.Load(),
		Batches:           t.batches.Load(),
		Shared:            t.flShared.Load(),
		BackpressureWaits: t.dirty.waits.Load(),
		Dirty:             t.dirty.len(),
	}
}

// CapacityBytes reports the cache tier's byte budget
// (Options.CacheCapacityBytes; 0 = unbounded).
func (t *Tiered) CapacityBytes() int64 { return t.opts.CacheCapacityBytes }

// DirtyBytes approximates the write-back dirty backlog's heap footprint
// (copied value buffers + keys + entry overhead). Lock-free; the
// server's overload watermark samples it.
func (t *Tiered) DirtyBytes() int64 { return t.dirty.bytes.Load() }

// Policy reports the configured synchronization policy.
func (t *Tiered) Policy() Policy { return t.opts.Policy }

// MissRatio returns the share of lookups that missed the cache tier (the
// MR of the cost model): misses over hits plus misses. Writes are requests
// but not lookups, so they do not dilute it.
func (t *Tiered) MissRatio() float64 {
	misses := t.misses.Load()
	return float64(misses) / float64(max(t.hits.Load()+misses, 1))
}

// Engine exposes the cache-tier engine (for measurement).
func (t *Tiered) Engine() *engine.Engine { return t.eng }

// Close flushes dirty data and stops background work.
func (t *Tiered) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stopCh)
	t.dirty.close() // backpressured writers return ErrClosed
	t.wg.Wait()
	if t.opts.Policy == WriteBack {
		return t.flushDirty(0) // final full flush
	}
	return nil
}
