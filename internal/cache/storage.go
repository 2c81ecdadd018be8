// Package cache implements TierBase's tiered storage layer (paper §4.1):
// a cache tier (the in-memory engine) synchronized with a disaggregated
// storage tier through write-through or write-back policies. It contains
// the techniques the paper credits for a low miss penalty and low storage
// cost: per-key write ordering (one stripe lock rule), dirty-data batching
// with backpressure, batched and coalesced miss fetches, and cache-content
// replication.
package cache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/lsm"
)

// ErrNotFound is returned when a key is absent from both tiers.
var ErrNotFound = errors.New("cache: key not found")

// Storage is the pluggable storage-tier adapter (paper §3: "TierBase
// offers various disaggregated storage options through a pluggable storage
// adapter"). Implementations must be safe for concurrent use.
//
// Presence is explicit — the (value, ok) shape. The old convention
// ("absent maps to nil") could not represent a stored empty value, so
// `SET k ""` silently degraded to absent once the key went cold and
// round-tripped through storage. Now:
//
//   - Get returns ok=false for absence (not an error); a present empty
//     value is ([]byte{}, true, nil).
//   - BatchGet returns only present keys — absence is a missing map
//     entry (the map lookup is the (value, ok)) — and present values are
//     always non-nil, even when empty.
type Storage interface {
	// Get returns the value for key and whether it exists.
	Get(key string) (val []byte, ok bool, err error)
	Put(key string, val []byte) error
	Delete(key string) error
	// BatchGet fetches many keys in one round trip. Present keys appear
	// in the result with a non-nil (possibly empty) value; absent keys
	// are omitted.
	BatchGet(keys []string) (map[string][]byte, error)
	// BatchPut applies many writes in one round trip; nil value = delete.
	// The nil-deletes contract is load-bearing: the write-through batch
	// commit (wtCommit) relies on it to carry a mixed put/delete
	// batch in a single round trip. The values are borrowed for the call
	// (MSET's point into the connection's parse buffer): an implementation
	// copies what it keeps.
	BatchPut(entries map[string][]byte) error
	// BatchDelete removes many keys in one round trip.
	BatchDelete(keys []string) error
}

// StorageFlusher is the optional bulk-clear extension of Storage. A
// replicated FLUSHALL must empty the storage tier too — otherwise
// flushed keys resurrect from storage on the next cache miss (the same
// failure mode ROADMAP.md records for TTL expiry). Implementations clear
// every key in (logically) one operation.
type StorageFlusher interface {
	FlushAll() error
}

// FlushStorage clears every key from s. Storage implementations that
// support bulk clearing implement StorageFlusher; for the rest this
// reports an error rather than silently leaving stale keys behind.
func FlushStorage(s Storage) error {
	if f, ok := s.(StorageFlusher); ok {
		return f.FlushAll()
	}
	return errors.New("cache: storage does not support FlushAll")
}

// presentValue normalizes a known-present value to the BatchGet/Get
// contract: a private copy, non-nil even when empty (make never returns
// nil, so a stored empty — or nil — value stays present-empty).
func presentValue(v []byte) []byte {
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// --- LSM adapter ---

// LSMStorage adapts an lsm.DB to the Storage interface — the UCS role.
type LSMStorage struct {
	DB *lsm.DB
}

// NewLSMStorage wraps db.
func NewLSMStorage(db *lsm.DB) *LSMStorage { return &LSMStorage{DB: db} }

// Get implements Storage. The LSM collapses empty values to nil
// internally; presence comes from the tombstone check, so a stored empty
// value still reports ok=true with a non-nil empty slice.
func (s *LSMStorage) Get(key string) ([]byte, bool, error) {
	v, err := s.DB.Get([]byte(key))
	if err == lsm.ErrNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return presentValue(v), true, nil
}

// Put implements Storage.
func (s *LSMStorage) Put(key string, val []byte) error {
	return s.DB.Put([]byte(key), val)
}

// Delete implements Storage.
func (s *LSMStorage) Delete(key string) error {
	return s.DB.Delete([]byte(key))
}

// BatchGet implements Storage natively: one lsm.DB.MultiGet resolves the
// whole batch against a single snapshot (sorted keys, one iterator per
// table, shared block decodes) — the old per-key DB.Get loop paid one
// snapshot and one block decode per key.
func (s *LSMStorage) BatchGet(keys []string) (map[string][]byte, error) {
	bkeys := make([][]byte, len(keys))
	for i, k := range keys {
		bkeys[i] = []byte(k)
	}
	vals, found, err := s.DB.MultiGet(bkeys)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	for i, k := range keys {
		if found[i] {
			// MultiGet's contract already matches presentValue's: found
			// values are private non-nil copies — no second copy needed.
			out[k] = vals[i]
		}
	}
	return out, nil
}

// BatchPut implements Storage natively: the whole batch (mixed puts and
// nil-value deletes) commits as one lsm.Batch — one sequence range, one
// WAL append, one fsync window — instead of one write-lock round and WAL
// record per key.
func (s *LSMStorage) BatchPut(entries map[string][]byte) error {
	size := 0
	for k, v := range entries {
		size += len(k) + len(v)
	}
	b := &lsm.Batch{}
	b.Grow(len(entries), size)
	for k, v := range entries {
		if v == nil {
			b.Delete([]byte(k))
		} else {
			b.Put([]byte(k), v)
		}
	}
	return s.DB.Apply(b)
}

// BatchDelete implements Storage natively: one batch of tombstones, one
// WAL append.
func (s *LSMStorage) BatchDelete(keys []string) error {
	b := &lsm.Batch{}
	for _, k := range keys {
		b.Delete([]byte(k))
	}
	return s.DB.Apply(b)
}

// FlushAll implements StorageFlusher by scanning live keys in bounded
// batches and writing a tombstone batch for each — the LSM has no
// O(1) truncate, so this is the honest cost of a replicated FLUSHALL
// against the UCS role. Each round scans from just past the previous
// batch's last key, so the loop terminates even while concurrent
// writers add keys behind the scan cursor.
func (s *LSMStorage) FlushAll() error {
	const batch = 512
	var start []byte
	for {
		kvs, err := s.DB.Scan(start, nil, batch)
		if err != nil {
			return err
		}
		if len(kvs) == 0 {
			return nil
		}
		b := &lsm.Batch{}
		for _, kv := range kvs {
			b.Delete(kv.Key)
		}
		if err := s.DB.Apply(b); err != nil {
			return err
		}
		last := kvs[len(kvs)-1].Key
		start = append(append([]byte(nil), last...), 0)
		if len(kvs) < batch {
			return nil
		}
	}
}

// --- remote wrapper: models the disaggregation network hop ---

// Remote wraps a Storage with a per-round-trip latency (the cache/storage
// disaggregation cost) and RPC counters. Batch operations pay one round
// trip — this is exactly why the paper's batching optimizations lower
// PC_miss and PC_storage.
type Remote struct {
	Inner Storage
	// RTT is the injected round-trip latency per call (0 = none).
	RTT time.Duration

	gets      atomic.Int64
	puts      atomic.Int64
	deletes   atomic.Int64
	batchGets atomic.Int64
	batchPuts atomic.Int64
	batchDels atomic.Int64
	flushes   atomic.Int64
	keysMoved atomic.Int64
}

// NewRemote wraps inner with rtt per round trip.
func NewRemote(inner Storage, rtt time.Duration) *Remote {
	return &Remote{Inner: inner, RTT: rtt}
}

func (r *Remote) pause() {
	if r.RTT <= 0 {
		return
	}
	// Spin-wait: time.Sleep floors at the kernel tick (>1 ms on coarse
	// timers), which would inflate sub-millisecond RTTs by an order of
	// magnitude and distort every miss-penalty measurement. Yield each
	// iteration: a network round trip leaves the CPU free, so goroutines
	// waiting to run (writers on other stripes, readers, the flusher)
	// must get the processor even at GOMAXPROCS=1.
	deadline := time.Now().Add(r.RTT)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Get implements Storage.
func (r *Remote) Get(key string) ([]byte, bool, error) {
	r.gets.Add(1)
	r.pause()
	return r.Inner.Get(key)
}

// Put implements Storage.
func (r *Remote) Put(key string, val []byte) error {
	r.puts.Add(1)
	r.pause()
	return r.Inner.Put(key, val)
}

// Delete implements Storage.
func (r *Remote) Delete(key string) error {
	r.deletes.Add(1)
	r.pause()
	return r.Inner.Delete(key)
}

// BatchGet implements Storage.
func (r *Remote) BatchGet(keys []string) (map[string][]byte, error) {
	r.batchGets.Add(1)
	r.keysMoved.Add(int64(len(keys)))
	r.pause()
	return r.Inner.BatchGet(keys)
}

// BatchPut implements Storage.
func (r *Remote) BatchPut(entries map[string][]byte) error {
	r.batchPuts.Add(1)
	r.keysMoved.Add(int64(len(entries)))
	r.pause()
	return r.Inner.BatchPut(entries)
}

// BatchDelete implements Storage.
func (r *Remote) BatchDelete(keys []string) error {
	r.batchDels.Add(1)
	r.keysMoved.Add(int64(len(keys)))
	r.pause()
	return r.Inner.BatchDelete(keys)
}

// FlushAll implements StorageFlusher when the inner storage does; one
// round trip regardless of key count (the whole point of pushing the
// clear down instead of enumerating keys over the wire).
func (r *Remote) FlushAll() error {
	r.flushes.Add(1)
	r.pause()
	return FlushStorage(r.Inner)
}

// RPCStats reports storage-tier round trips by type.
type RPCStats struct {
	Gets, Puts, Deletes, BatchGets, BatchPuts, BatchDels, Flushes, KeysMoved int64
}

// Stats returns the RPC counters.
func (r *Remote) Stats() RPCStats {
	return RPCStats{
		Gets:      r.gets.Load(),
		Puts:      r.puts.Load(),
		Deletes:   r.deletes.Load(),
		BatchGets: r.batchGets.Load(),
		BatchPuts: r.batchPuts.Load(),
		BatchDels: r.batchDels.Load(),
		Flushes:   r.flushes.Load(),
		KeysMoved: r.keysMoved.Load(),
	}
}

// TotalRPCs returns the total number of storage round trips.
func (r *Remote) TotalRPCs() int64 {
	s := r.Stats()
	return s.Gets + s.Puts + s.Deletes + s.BatchGets + s.BatchPuts + s.BatchDels + s.Flushes
}

// --- map storage: in-memory test double / pure-cache backend ---

// MapStorage is a trivial Storage for tests and cache-only deployments.
type MapStorage struct {
	mu sync.RWMutex
	m  map[string][]byte
	// FailPuts makes writes fail (for write-through failure-path tests).
	FailPuts atomic.Bool
}

// NewMapStorage returns an empty MapStorage.
func NewMapStorage() *MapStorage { return &MapStorage{m: make(map[string][]byte)} }

var errInjectedFailure = errors.New("cache: injected storage failure")

// Get implements Storage.
func (s *MapStorage) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	return presentValue(v), true, nil
}

// Put implements Storage.
func (s *MapStorage) Put(key string, val []byte) error {
	if s.FailPuts.Load() {
		return errInjectedFailure
	}
	s.mu.Lock()
	s.m[key] = append([]byte(nil), val...)
	s.mu.Unlock()
	return nil
}

// Delete implements Storage.
func (s *MapStorage) Delete(key string) error {
	if s.FailPuts.Load() {
		return errInjectedFailure
	}
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return nil
}

// BatchGet implements Storage.
func (s *MapStorage) BatchGet(keys []string) (map[string][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := s.m[k]; ok {
			out[k] = presentValue(v)
		}
	}
	return out, nil
}

// BatchPut implements Storage.
func (s *MapStorage) BatchPut(entries map[string][]byte) error {
	if s.FailPuts.Load() {
		return errInjectedFailure
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range entries {
		if v == nil {
			delete(s.m, k)
		} else {
			s.m[k] = append([]byte(nil), v...)
		}
	}
	return nil
}

// BatchDelete implements Storage.
func (s *MapStorage) BatchDelete(keys []string) error {
	if s.FailPuts.Load() {
		return errInjectedFailure
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		delete(s.m, k)
	}
	return nil
}

// FlushAll implements StorageFlusher.
func (s *MapStorage) FlushAll() error {
	if s.FailPuts.Load() {
		return errInjectedFailure
	}
	s.mu.Lock()
	s.m = make(map[string][]byte)
	s.mu.Unlock()
	return nil
}

// Len returns the number of stored keys.
func (s *MapStorage) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
