// Package stack assembles one data node's tiers: the engine options (a
// trained compressor, a PMem arena), the storage tier (an LSM, optionally
// behind a simulated network hop) and the cache.Tiered store over them.
// The embedded store, tierbase-server, the paper-figure harness and the
// cost advisor all build through it, so each of them runs the stack the
// others run. Admission is not part of a stack: tierbase-server and the
// harness each put an elastic pool in front of theirs, and the embedded
// store calls its stack on the caller's goroutine.
//
// There are two halves because server.Start builds its node's engine
// itself: NewEngine gives the options the engine is built from, and
// NewTiered puts the storage tier behind it. Open does both.
package stack

import (
	"errors"
	"fmt"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/compress"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/pmem"
	"tierbase/internal/wal"
)

// Config is what a deployment chooses.
type Config struct {
	// Policy selects cache-only, write-through or write-back. The tiered
	// policies need Dir.
	Policy cache.Policy
	// Dir hosts the LSM storage tier.
	Dir string
	// CacheBytes bounds the cache tier (0 = unbounded).
	CacheBytes int64
	// Compression names a value compressor (compress.ByName); "" stores
	// values raw. CompressionLevel applies to the deflate variants.
	Compression      string
	CompressionLevel int
	// TrainingSamples pre-train the compressor (paper §4.2).
	TrainingSamples [][]byte
	// PMemBytes, when > 0, offloads values to a simulated PMem device of
	// that size (paper §4.3): volatile, with PMem's capacity and injected
	// latency.
	PMemBytes int64
	// StorageRTT injects a round trip on every storage call (0 = none).
	StorageRTT time.Duration
}

// Engine is the cache-tier half of a node: the options its engines are
// built from, and the PMem device their arena writes to.
type Engine struct {
	Options engine.Options
	dev     *pmem.Device
}

// NewEngine trains c's compressor and opens its PMem device.
func NewEngine(c Config) (*Engine, error) {
	e := &Engine{}
	if c.Compression != "" {
		comp, err := compress.ByName(c.Compression, c.CompressionLevel)
		if err != nil {
			return nil, err
		}
		if len(c.TrainingSamples) > 0 {
			if err := comp.Train(c.TrainingSamples); err != nil {
				return nil, fmt.Errorf("stack: train %s: %w", c.Compression, err)
			}
		}
		e.Options.Compressor = comp
	}
	if c.PMemBytes > 0 {
		// A simulated device without PMem's latency would be DRAM.
		e.dev = pmem.OpenVolatile(int(c.PMemBytes), pmem.DefaultLatency)
		e.Options.Arena = pmem.NewArena(e.dev)
	}
	return e, nil
}

// Close closes the PMem device, after every engine built from e is done.
func (e *Engine) Close() error {
	if e.dev == nil {
		return nil
	}
	return e.dev.Close()
}

// Stack is a tiered store and the LSM behind it.
type Stack struct {
	*cache.Tiered
	// DB is the storage tier; nil under cache-only.
	DB *lsm.DB
	// eng is the half Open built; nil when the caller owns the engine.
	eng *Engine
}

// NewTiered opens c's storage tier in c.Dir and builds the tiered store
// over eng.
func NewTiered(c Config, eng *engine.Engine) (*Stack, error) {
	opts := cache.Options{Policy: c.Policy, Engine: eng, CacheCapacityBytes: c.CacheBytes}
	s := &Stack{}
	switch c.Policy {
	case cache.CacheOnly:
	case cache.WriteThrough, cache.WriteBack:
		if c.Dir == "" {
			return nil, errors.New("stack: Dir required for tiered policies")
		}
		db, err := lsm.Open(lsm.Options{Dir: c.Dir, WALSyncPolicy: wal.SyncInterval})
		if err != nil {
			return nil, err
		}
		s.DB = db
		var stor cache.Storage = cache.NewLSMStorage(db)
		if c.StorageRTT > 0 {
			stor = cache.NewRemote(stor, c.StorageRTT)
		}
		opts.Storage = stor
	default:
		return nil, fmt.Errorf("stack: unknown policy %d", c.Policy)
	}
	t, err := cache.New(opts)
	if err != nil {
		if s.DB != nil {
			s.DB.Close()
		}
		return nil, err
	}
	s.Tiered = t
	return s, nil
}

// Open builds a node.
func Open(c Config) (*Stack, error) {
	e, err := NewEngine(c)
	if err != nil {
		return nil, err
	}
	s, err := NewTiered(c, engine.New(e.Options))
	if err != nil {
		e.Close()
		return nil, err
	}
	s.eng = e
	return s, nil
}

// Close closes the tiered store (write-back flushes its dirty keys into
// the LSM), then the LSM (which syncs its WAL), then the PMem device
// Open made. Closing a tiered store twice is harmless, so a server that
// closed its node's store closes the stack after it.
func (s *Stack) Close() error {
	err := s.Tiered.Close()
	if s.DB != nil {
		if derr := s.DB.Close(); err == nil {
			err = derr
		}
	}
	if s.eng != nil {
		if perr := s.eng.Close(); err == nil {
			err = perr
		}
	}
	return err
}
