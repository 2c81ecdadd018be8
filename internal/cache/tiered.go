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
	// FlushBatch is the write-back dirty batch size (default 128).
	FlushBatch int
	// FlushInterval is the max time dirty data waits (default 50 ms).
	FlushInterval time.Duration
	// MaxDirty triggers backpressure (default 8 * FlushBatch): a writer
	// that finds this many keys dirty waits for the flusher.
	MaxDirty int

	// StorageRetries is how many times a failed storage call is retried
	// before the error surfaces (default 2; negative disables). Retries
	// back off exponentially from StorageRetryBackoff (default 5 ms).
	StorageRetries      int
	StorageRetryBackoff time.Duration
	// DegradeAfter trips degraded (cache-only) mode after this many
	// consecutive failed storage calls (default 3). While degraded,
	// storage reads short-circuit to "absent", writes fail fast without
	// retry sleeps, and one probe per DegradedProbeInterval (default
	// 500 ms) tests for recovery. See health.go.
	DegradeAfter          int
	DegradedProbeInterval time.Duration
}

func (o *Options) fill() {
	if o.FlushBatch <= 0 {
		o.FlushBatch = 128
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.MaxDirty <= 0 {
		o.MaxDirty = 8 * o.FlushBatch
	}
	if o.StorageRetries == 0 {
		o.StorageRetries = 2
	}
	if o.StorageRetries < 0 {
		o.StorageRetries = 0
	}
	if o.StorageRetryBackoff <= 0 {
		o.StorageRetryBackoff = 5 * time.Millisecond
	}
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = 3
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

	// Singleflight state: at most one storage fetch per key is in flight;
	// concurrent misses of the same key wait on the leader's result
	// instead of issuing duplicate storage round trips.
	flMu    sync.Mutex
	flights map[string]*flight

	// Per-stripe RMW locks: the one per-key write-ordering rule. rmw[i]
	// covers every key in engine stripe i, and every write entry point holds
	// the lock of each stripe it writes from before the storage write (or
	// dirty-mark) until after the sink call; holders of several (batches,
	// FlushAll) acquire in ascending index. See lockKey / lockKeys.
	rmw []sync.Mutex

	// Replication sink (see sink.go); nil when replication is off.
	sink OpSink

	// Storage-tier health: retry counters and the degraded-mode state
	// machine (see health.go); nil under CacheOnly.
	health *storageHealth

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
	flShared  atomic.Int64 // miss fetches served by another caller's flight
}

// flight is one in-progress storage fetch; waiters block on done.
type flight struct {
	done chan struct{}
	val  []byte // valid after done closes; nil when absent
	err  error  // ErrNotFound when absent; storage error otherwise
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

// New builds a Tiered store.
func New(opts Options) (*Tiered, error) {
	opts.fill()
	if opts.Engine == nil {
		return nil, errors.New("cache: Engine required")
	}
	if opts.Policy != CacheOnly && opts.Storage == nil {
		return nil, errors.New("cache: Storage required for tiered policies")
	}
	// Decorate the storage tier with retry + degradation (health.go)
	// before anything captures opts.Storage: every call site below —
	// write-through commits, write-back flushes, miss fetches, batch
	// round trips — then inherits the policy transparently.
	var health *storageHealth
	if opts.Policy != CacheOnly {
		rs := newRetryStorage(opts.Storage, opts.StorageRetries,
			opts.StorageRetryBackoff, int64(opts.DegradeAfter),
			opts.DegradedProbeInterval)
		opts.Storage = rs
		health = rs.h
	}
	t := &Tiered{
		opts:    opts,
		eng:     opts.Engine,
		health:  health,
		flights: make(map[string]*flight),
		dirty:   newDirtySet(opts.MaxDirty),
		stopCh:  make(chan struct{}),
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
	if opts.Policy == WriteBack {
		t.wg.Add(1)
		go t.flushLoop()
	}
	t.wg.Add(1)
	go t.expirySweepLoop()
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
// resident key is pinned ends the attempt after one lap of that stripe; the
// next attempt starts at the stripe after it, and the flusher's next round
// unpins the rest.
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
	for t.eng.MemUsed() > capacity {
		si := int(t.evictHand.Add(1) % n)
		if t.eng.ShardMemUsed(si) == 0 {
			continue // an empty stripe costs an atomic load and no lock
		}
		if !t.eng.Evict(si, t.pinned[si]) {
			return // every key there is pinned; the flusher will unblock us
		}
		t.evictions.Add(1)
	}
}

// --- reads ---

// Get returns the value for key, consulting the cache tier first and the
// storage tier on a miss (populating the cache on the way back).
func (t *Tiered) Get(key string) ([]byte, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	t.reqs.Add(1)
	v, err := t.eng.Get(key)
	if err == nil {
		t.hits.Add(1)
		return v, nil
	} else if err == engine.ErrWrongType {
		return nil, err
	}
	t.misses.Add(1)
	if t.opts.Policy == CacheOnly {
		return nil, ErrNotFound
	}
	// Dirty tombstone shadows storage (write-back delete not yet flushed).
	if t.opts.Policy == WriteBack {
		if e, ok := t.dirty.lookup(key); ok {
			if e.val == nil {
				return nil, ErrNotFound
			}
			if e.enc {
				return nil, engine.ErrWrongType // unflushed collection blob
			}
			// Dirty value exists but was missing from cache (should not
			// happen — dirty keys are eviction-exempt — but be safe).
			return copyBytes(e.val), nil
		}
	}
	// TTL delete-through: if the miss is a lapsed-TTL key still occupying
	// the shard map, delete it through the storage tier instead of
	// fetching — the storage copy would otherwise resurrect the expired
	// key right here. The probe takes the engine's read lock only, so a miss
	// of any other kind takes no RMW lock.
	if t.eng.Expired(key) && t.expireThrough(key) {
		return nil, ErrNotFound
	}
	v, err = t.fetchCoalesced(key)
	if err != nil {
		if errors.Is(err, ErrDegraded) {
			return nil, ErrNotFound // degraded: serve cache tier only
		}
		return nil, err
	}
	t.maybeEvict()
	return v, nil
}

// expireThrough confirms key's TTL has lapsed and, if so, deletes it
// through every tier under the key's RMW stripe lock: the engine drops it
// here and commit carries the delete to storage and the sink like any
// other. Reports whether an expired key was taken. TakeExpired rechecks
// under the engine write lock, so a concurrent PERSIST or overwrite wins
// the race and no live value is deleted.
func (t *Tiered) expireThrough(key string) bool {
	defer t.lockKey(key).Unlock()
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
				t.expireThrough(k)
			}
			again = len(lapsed)*4 >= expirySweepVisits
		}
	}
}

// --- singleflight core (shared by Get and BatchGet) ---

// splitFlights partitions keys into flights this caller now leads
// (registered under flMu) and flights already in progress to join.
// Duplicate keys in the input collapse onto one flight.
func (t *Tiered) splitFlights(keys []string) (lead, join map[string]*flight) {
	lead = make(map[string]*flight, len(keys))
	join = make(map[string]*flight)
	t.flMu.Lock()
	for _, k := range keys {
		if _, ours := lead[k]; ours {
			continue
		}
		if f, ok := t.flights[k]; ok {
			join[k] = f
			continue
		}
		f := &flight{done: make(chan struct{})}
		t.flights[k] = f
		lead[k] = f
	}
	t.flMu.Unlock()
	return lead, join
}

// publishFlights completes led flights from one storage fetch: vals is a
// Storage.BatchGet result (present keys only — absence is a missing map
// entry, never a nil value), err poisons every flight. Fetched values are
// admitted into the cache tier before the flights close, so waiters
// observe a warm cache.
func (t *Tiered) publishFlights(lead map[string]*flight, vals map[string][]byte, err error) {
	for k, f := range lead {
		v, present := vals[k]
		switch {
		case err != nil:
			f.err = err
		case !present:
			f.err = ErrNotFound
		default:
			if v == nil {
				v = []byte{} // defensive: present must stay present-empty
			}
			if engine.IsTypedValue(v) {
				// Collection blob: decode into the cache tier; string
				// readers then observe the key exactly as they would a
				// resident collection (wrong type).
				if f.err = t.eng.LoadEncoded(k, v); f.err == nil {
					f.err = engine.ErrWrongType
				}
				break
			}
			f.val = engine.UnescapeStringValue(v)
			t.eng.Set(k, f.val)
		}
	}
	t.flMu.Lock()
	for k := range lead {
		delete(t.flights, k)
	}
	t.flMu.Unlock()
	for _, f := range lead {
		close(f.done)
	}
}

// awaitFlight blocks on a flight led elsewhere and returns a private copy
// of its result.
func (t *Tiered) awaitFlight(f *flight) ([]byte, error) {
	<-f.done
	t.flShared.Add(1)
	if f.err != nil {
		return nil, f.err
	}
	return copyBytes(f.val), nil
}

// fetchCoalesced fetches key from the storage tier with singleflight
// dedup: the first caller becomes the leader, issues the round trip and
// admits the value into the cache tier; concurrent callers for the same
// key wait on that flight instead of duplicating the storage read.
func (t *Tiered) fetchCoalesced(key string) ([]byte, error) {
	lead, join := t.splitFlights([]string{key})
	if f, ok := join[key]; ok {
		return t.awaitFlight(f)
	}
	f := lead[key]
	v, ok, err := t.opts.Storage.Get(key)
	vals := map[string][]byte{}
	if err == nil && ok {
		if v == nil {
			v = []byte{} // present empty value, not absent
		}
		vals[key] = v
	}
	t.publishFlights(lead, vals, err)
	return f.val, f.err
}

// --- writes ---

// lockKey takes the RMW lock of key's stripe and returns it for the
// caller to release: defer t.lockKey(key).Unlock().
func (t *Tiered) lockKey(key string) *sync.Mutex {
	mu := &t.rmw[t.eng.ShardIndex(key)]
	mu.Lock()
	return mu
}

// lockKeys takes the RMW lock of every stripe the keys of ws touch, in
// ascending index order (FlushAll's order, so multi-stripe holders never
// deadlock), and returns the release: defer t.lockKeys(ws)().
func (t *Tiered) lockKeys(ws []write) (unlock func()) {
	touched := make([]bool, len(t.rmw))
	for _, w := range ws {
		touched[t.eng.ShardIndex(w.key)] = true
	}
	for si, hit := range touched {
		if hit {
			t.rmw[si].Lock()
		}
	}
	return func() {
		for si, hit := range touched {
			if hit {
				t.rmw[si].Unlock()
			}
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
// deletes there, so it warms, locks, pins and commits as INCR or CAS do:
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
// replication sink. A key that lives only in the storage tier is faulted
// in first (hold, rmw.go: TTLs are cache-tier state). Reports whether the
// key existed. The deadline is absolute on the wire too (OpExpire):
// replicas applying the op late still expire the key at the same instant
// the master did.
func (t *Tiered) ExpireAt(key string, at int64) bool {
	if t.closed.Load() {
		return false
	}
	defer t.release(t.hold(key))
	if !t.eng.ExpireAt(key, at) {
		return false
	}
	if t.sink != nil {
		t.sink.Replicate(replication.ExpireOp(key, at))
	}
	return true
}

// Persist clears key's TTL under its RMW stripe lock, faulting the key in
// like ExpireAt; reports whether the key existed.
func (t *Tiered) Persist(key string) bool {
	if t.closed.Load() {
		return false
	}
	defer t.release(t.hold(key))
	if !t.eng.Persist(key) {
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
	for i := range t.rmw {
		t.rmw[i].Lock()
	}
	defer func() {
		for i := range t.rmw {
			t.rmw[i].Unlock()
		}
	}()

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
		err = FlushStorage(t.opts.Storage)
	}
	if t.sink != nil {
		t.sink.Replicate(replication.Op{Kind: replication.OpFlushAll})
	}
	return err
}

// Health reports storage-tier health (retry/degradation counters); the
// zero value under CacheOnly, which has no storage tier.
func (t *Tiered) Health() HealthStats {
	if t.health == nil {
		return HealthStats{}
	}
	return t.health.snapshot()
}

// --- stats ---

// Stats summarizes tiered-store behavior for cost measurement.
type Stats struct {
	Requests          int64
	Hits              int64
	Misses            int64
	Evictions         int64
	Flushed           int64 // write-back entries flushed
	Batches           int64 // write-back flush round trips
	Shared            int64 // miss fetches coalesced onto another caller's flight
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

// MissRatio returns misses/requests (the MR of the cost model).
func (t *Tiered) MissRatio() float64 {
	r := t.reqs.Load()
	if r == 0 {
		return 0
	}
	return float64(t.misses.Load()) / float64(r)
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
