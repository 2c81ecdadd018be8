// Package tierbase is a workload-driven, cost-optimized key-value store —
// a from-scratch reproduction of "TierBase: A Workload-Driven
// Cost-Optimized Key-Value Store" (Shen et al., ICDE 2025).
//
// The package offers an embedded store with the paper's cost-saving
// machinery: a tiered cache/storage architecture with write-through or
// write-back synchronization, pre-trained compression (dictionary DEFLATE
// as the Zstd analog, plus pattern-based compression), a simulated
// persistent-memory tier, and the Space-Performance Cost Model for
// configuration selection. Elastic threading (paper §4.4) belongs to a
// node's event loop, so it lives in cmd/tierbase-server; an embedded
// Store runs each call on the caller's goroutine.
//
// The cache-tier engine is lock-striped: keys hash onto power-of-two
// shards with independent locks, so concurrent operations on different
// keys proceed in parallel, and the batch API takes each stripe lock once
// per batch instead of once per key.
//
// Quick start:
//
//	store, err := tierbase.Open(tierbase.Options{})
//	if err != nil { ... }
//	defer store.Close()
//	store.Set("greeting", []byte("hello"))
//	v, _ := store.Get("greeting")
//
// Batch API — many keys, one pass through the striped engine (and, in
// tiered modes, one storage-tier round trip for the misses):
//
//	store.MSet(map[string][]byte{
//		"user:1": []byte("alice"),
//		"user:2": []byte("bob"),
//	})
//	vals, _ := store.MGet("user:1", "user:2", "user:3")
//	// vals["user:1"] == []byte("alice"); absent keys map to nil.
//
// A networked deployment (RESP protocol, Redis-compatible clients,
// including MGET/MSET) is available via cmd/tierbase-server; the
// experiment harness reproducing every table and figure of the paper
// lives in cmd/tierbase-bench.
package tierbase

import (
	"errors"
	"sync"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/compress"
	"tierbase/internal/core"
	"tierbase/internal/engine"
	"tierbase/internal/stack"
)

// Policy selects cache/storage synchronization (paper §4.1).
type Policy int

// Policies, the cache tier's own.
const (
	// CacheOnly keeps all data in the cache tier (no storage tier).
	CacheOnly = Policy(cache.CacheOnly)
	// WriteThrough synchronously persists each write to the storage tier.
	WriteThrough = Policy(cache.WriteThrough)
	// WriteBack acks from the cache tier and batches writes to storage.
	WriteBack = Policy(cache.WriteBack)
)

// Options configures a Store.
type Options struct {
	// Policy selects the tiering mode. WriteThrough and WriteBack
	// require Dir for the storage tier.
	Policy Policy
	// Dir hosts the storage tier (LSM) and WAL for persistent modes.
	Dir string
	// CacheCapacityBytes bounds cache-tier DRAM (0 = unbounded). With a
	// bound, cold entries evict to the storage tier (tiered modes).
	CacheCapacityBytes int64
	// Compression selects a value compressor: "", "pbc", "zstd-d"
	// (pre-trained dictionary), "zstd-b" (no dictionary).
	Compression string
	// TrainingSamples pre-train the compressor (paper §4.2). Required
	// for "pbc" and "zstd-d" to be effective.
	TrainingSamples [][]byte
	// PMemBytes, when > 0, creates a simulated persistent-memory arena of
	// that size; values of 64 B or more (after compression) are offloaded
	// to it (paper §4.3). The simulation models PMem's capacity and
	// latency; it is volatile, so nothing in it outlives the process.
	PMemBytes int64
}

// Store is an embedded TierBase instance. Its methods are safe for
// concurrent use and run on the calling goroutine.
type Store struct {
	eng    *engine.Engine
	tiered *stack.Stack
	engOpt *stack.Engine // owns the PMem device eng's arena writes to
	mon    *compress.Monitor
	// life is held shared by every call and exclusively by Close, so Close
	// waits for the calls in flight and every later call sees closed.
	life   sync.RWMutex
	closed bool
}

// Open builds a Store from options.
func Open(opts Options) (*Store, error) {
	cfg := stack.Config{
		Policy:          cache.Policy(opts.Policy),
		Dir:             opts.Dir,
		CacheBytes:      opts.CacheCapacityBytes,
		Compression:     opts.Compression,
		TrainingSamples: opts.TrainingSamples,
		PMemBytes:       opts.PMemBytes,
	}
	eo, err := stack.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	s := &Store{engOpt: eo}
	if eo.Options.Compressor != nil {
		s.mon = compress.NewMonitor(0)
		eo.Options.Monitor = s.mon
	}
	s.eng = engine.New(eo.Options)
	if s.tiered, err = stack.NewTiered(cfg, s.eng); err != nil {
		eo.Close()
		return nil, err
	}
	return s, nil
}

// do runs fn unless the store is closed, and keeps Close from closing the
// tiers under it. fn (and so an Update callback) must not call the store:
// a Close waiting for the lock would block that inner call.
func (s *Store) do(fn func() error) error {
	s.life.RLock()
	defer s.life.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return fn()
}

// Set stores key = val.
func (s *Store) Set(key string, val []byte) error {
	return s.do(func() error { return s.tiered.Set(key, val) })
}

// Get fetches key; ErrNotFound when absent from both tiers.
func (s *Store) Get(key string) (v []byte, err error) {
	err = s.do(func() (err error) { v, err = s.tiered.Get(key); return })
	if err == cache.ErrNotFound || err == engine.ErrNotFound {
		return nil, ErrNotFound
	}
	return v, err
}

// Delete removes key from both tiers.
func (s *Store) Delete(key string) error {
	return s.do(func() error { return s.tiered.Delete(key) })
}

// MGet fetches many keys at once: one striped pass over the cache tier
// plus, in tiered modes, a single storage round trip for the misses.
// Absent keys map to nil in the result.
func (s *Store) MGet(keys ...string) (out map[string][]byte, err error) {
	err = s.do(func() (err error) { out, err = s.tiered.BatchGet(keys); return })
	return out, err
}

// MSet stores many pairs at once (nil value = delete): one striped pass
// over the cache tier plus, in tiered modes, a single storage round trip
// (write-through) or one dirty-batch admission (write-back).
func (s *Store) MSet(entries map[string][]byte) error {
	return s.do(func() error { return s.tiered.BatchPut(entries) })
}

// BatchDelete removes many keys at once through every tier, returning how
// many existed (in cache, unflushed dirty state, or storage). Duplicate
// keys count at most once.
func (s *Store) BatchDelete(keys ...string) (n int, err error) {
	err = s.do(func() (err error) { n, err = s.tiered.BatchDelete(keys); return })
	return n, err
}

// Update applies a read-modify-write; fn receives the current value (or
// exists=false) and returns the replacement (nil = delete).
func (s *Store) Update(key string, fn func(old []byte, exists bool) []byte) error {
	return s.do(func() error { return s.tiered.Update(key, fn) })
}

// CompareAndSet swaps key's value only if it currently equals oldVal
// (nil oldVal = "absent"). Returns ErrCASMismatch on conflict.
func (s *Store) CompareAndSet(key string, oldVal, newVal []byte) error {
	err := s.do(func() error {
		return s.tiered.Mutate(key, func() (bool, error) {
			err := s.eng.CompareAndSet(key, oldVal, newVal)
			return err == nil, err
		})
	})
	if err == engine.ErrCASMismatch {
		return ErrCASMismatch
	}
	return err
}

// IncrBy adds delta to an integer value.
func (s *Store) IncrBy(key string, delta int64) (v int64, err error) {
	err = s.do(func() error {
		return s.tiered.Mutate(key, func() (bool, error) {
			var err error
			v, err = s.eng.IncrBy(key, delta)
			return err == nil, err
		})
	})
	return v, err
}

// Expire sets a TTL on key.
func (s *Store) Expire(key string, d time.Duration) (ok bool) {
	s.do(func() error { ok = s.tiered.ExpireAt(key, time.Now().Add(d).UnixNano()); return nil })
	return ok
}

// Engine exposes the cache-tier engine for data-structure commands
// (lists, sets, sorted sets, hashes) and advanced operations.
func (s *Store) Engine() *engine.Engine { return s.eng }

// Errors.
var (
	// ErrNotFound reports an absent key.
	ErrNotFound = errors.New("tierbase: key not found")
	// ErrCASMismatch reports a failed compare-and-set.
	ErrCASMismatch = errors.New("tierbase: compare-and-set mismatch")
	// ErrClosed reports a call made after Close.
	ErrClosed = errors.New("tierbase: store closed")
)

// Stats summarizes store state for monitoring and cost measurement.
type Stats struct {
	Keys             int
	CacheMemBytes    int64
	PMemBytes        int64
	StorageDiskBytes int64
	Requests         int64
	Hits             int64
	Misses           int64
	MissRatio        float64
	DirtyEntries     int
	// BackpressureWaits counts write-back writers that blocked because
	// their write-path stripe's dirty budget was full.
	BackpressureWaits int64
	CompressionRatio  float64 // observed compressed/raw (1 = none)
}

// Stats returns a snapshot.
func (s *Store) Stats() Stats {
	est := s.eng.Stats()
	cst := s.tiered.Stats()
	st := Stats{
		Keys:              est.Keys,
		CacheMemBytes:     est.MemBytes,
		PMemBytes:         est.PMemUsed,
		Requests:          cst.Requests,
		Hits:              cst.Hits,
		Misses:            cst.Misses,
		MissRatio:         s.tiered.MissRatio(),
		DirtyEntries:      cst.Dirty,
		BackpressureWaits: cst.BackpressureWaits,
	}
	if s.tiered.DB != nil {
		st.StorageDiskBytes = s.tiered.DB.Stats().DiskBytes
	}
	st.CompressionRatio = 1
	if s.mon != nil && s.mon.Records() > 0 {
		st.CompressionRatio = s.mon.Ratio()
	}
	return st
}

// FlushDirty forces write-back dirty data to the storage tier.
func (s *Store) FlushDirty() error { return s.tiered.FlushDirty() }

// Close waits for the calls in flight, then flushes and releases all
// resources. Later calls return ErrClosed; a second Close does nothing.
func (s *Store) Close() error {
	s.life.Lock()
	defer s.life.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.tiered.Close()
	if perr := s.engOpt.Close(); err == nil {
		err = perr
	}
	return err
}

// --- cost model re-exports (the paper's §2/§5 API) ---

// Cost-model types, re-exported from the internal implementation so
// downstream users can run the Space-Performance Cost Model directly.
type (
	// CostWorkload describes a workload's QPS and data volume.
	CostWorkload = core.Workload
	// CostInstance is a priced resource instance.
	CostInstance = core.Instance
	// CostMeasured is a configuration's measured capability.
	CostMeasured = core.Measured
	// CostEvaluation is a priced configuration.
	CostEvaluation = core.Evaluation
	// TieredCostInputs parameterizes the tiered cost model (Eq. 3).
	TieredCostInputs = core.TieredInputs
	// MissRatioCurve is MR = f(CR).
	MissRatioCurve = core.MRC
)

// StandardContainer is the paper's 1-core/4-GB relative cost unit.
var StandardContainer = core.StandardContainer

// OptimalConfig picks the min-max-cost configuration (Theorem 2.1).
func OptimalConfig(w CostWorkload, i CostInstance, configs []CostMeasured) (CostEvaluation, error) {
	return core.OptimalConfig(w, i, configs)
}

// TieredCost evaluates Equation 3 for a cache ratio and miss ratio.
func TieredCost(in TieredCostInputs, cr, mr float64) float64 {
	return core.TieredCost(in, cr, mr)
}

// OptimalCacheRatio solves Theorem 5.1 on a miss-ratio curve.
func OptimalCacheRatio(in TieredCostInputs, f MissRatioCurve) (cr, mr, cost float64) {
	return core.OptimalCacheRatio(in, f)
}

// BreakEvenInterval is the adapted Five-Minute Rule (Equation 5), in
// seconds.
func BreakEvenInterval(cpqpsSlow, cpgbFast, avgRecordBytes float64) float64 {
	return core.BreakEvenInterval(cpqpsSlow, cpgbFast, avgRecordBytes)
}

// BuildMRC estimates an empirical miss-ratio curve from a key trace.
func BuildMRC(keyTrace []string) MissRatioCurve {
	return core.BuildMRC(keyTrace).Curve(true)
}
