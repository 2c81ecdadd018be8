package faults

import (
	"errors"
	"sync/atomic"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/wal"
)

// ErrInjectedDisk is the error the disk injectors return while failing.
var ErrInjectedDisk = errors.New("faults: injected disk error")

// diskControls is the shared scripting surface of the Storage and WAL
// injectors: fail reads and/or writes while toggled on, inject per-op
// latency.
type diskControls struct {
	failReads  atomic.Bool
	failWrites atomic.Bool
	latency    atomic.Int64 // ns added per op
}

// FailReads makes read ops fail with ErrInjectedDisk while on.
func (d *diskControls) FailReads(on bool) { d.failReads.Store(on) }

// FailWrites makes write ops fail with ErrInjectedDisk while on.
func (d *diskControls) FailWrites(on bool) { d.failWrites.Store(on) }

// SetLatency injects d of latency on every op.
func (d *diskControls) SetLatency(lat time.Duration) { d.latency.Store(int64(lat)) }

// gate applies latency and decides one op's fate.
func (d *diskControls) gate(write bool) error {
	if lat := d.latency.Load(); lat > 0 {
		time.Sleep(time.Duration(lat))
	}
	if (write && d.failWrites.Load()) || (!write && d.failReads.Load()) {
		return ErrInjectedDisk
	}
	return nil
}

// Storage wraps a cache.Storage with scripted errors and latency — the
// erroring-disk drill's storage-tier seam.
type Storage struct {
	diskControls
	Inner cache.Storage
}

// WrapStorage wraps inner with fault controls.
func WrapStorage(inner cache.Storage) *Storage { return &Storage{Inner: inner} }

// Get implements cache.Storage.
func (s *Storage) Get(key string) ([]byte, bool, error) {
	if err := s.gate(false); err != nil {
		return nil, false, err
	}
	return s.Inner.Get(key)
}

// Put implements cache.Storage.
func (s *Storage) Put(key string, val []byte) error {
	if err := s.gate(true); err != nil {
		return err
	}
	return s.Inner.Put(key, val)
}

// Delete implements cache.Storage.
func (s *Storage) Delete(key string) error {
	if err := s.gate(true); err != nil {
		return err
	}
	return s.Inner.Delete(key)
}

// BatchGet implements cache.Storage.
func (s *Storage) BatchGet(keys []string) (map[string][]byte, error) {
	if err := s.gate(false); err != nil {
		return nil, err
	}
	return s.Inner.BatchGet(keys)
}

// BatchPut implements cache.Storage.
func (s *Storage) BatchPut(entries map[string][]byte) error {
	if err := s.gate(true); err != nil {
		return err
	}
	return s.Inner.BatchPut(entries)
}

// BatchDelete implements cache.Storage.
func (s *Storage) BatchDelete(keys []string) error {
	if err := s.gate(true); err != nil {
		return err
	}
	return s.Inner.BatchDelete(keys)
}

// FlushAll forwards the optional storage-clear hook when the inner
// storage supports it (gated like a write).
func (s *Storage) FlushAll() error {
	if err := s.gate(true); err != nil {
		return err
	}
	return cache.FlushStorage(s.Inner)
}

var _ cache.Storage = (*Storage)(nil)

// WAL wraps a wal.Appender with scripted errors and latency — the
// erroring-disk drill's log seam (inject via lsm.Options.WALFactory).
type WAL struct {
	diskControls
	Inner wal.Appender
}

// WrapWAL wraps inner with fault controls.
func WrapWAL(inner wal.Appender) *WAL { return &WAL{Inner: inner} }

// Append implements wal.Appender.
func (w *WAL) Append(payload []byte) error {
	if err := w.gate(true); err != nil {
		return err
	}
	return w.Inner.Append(payload)
}

// Sync implements wal.Appender.
func (w *WAL) Sync() error {
	if err := w.gate(true); err != nil {
		return err
	}
	return w.Inner.Sync()
}

// Close implements wal.Appender (never injected: teardown must work).
func (w *WAL) Close() error { return w.Inner.Close() }

// Rotate implements wal.Appender, gated like Append: a failing disk fails
// the segment switch, and with it the memtable rotation.
func (w *WAL) Rotate() (int, error) {
	if err := w.gate(true); err != nil {
		return 0, err
	}
	return w.Inner.Rotate()
}

// RemoveBefore implements wal.Appender (never injected: reclamation is
// best-effort, and a failure would only keep segments replay filters).
func (w *WAL) RemoveBefore(seq int) error { return w.Inner.RemoveBefore(seq) }

var _ wal.Appender = (*WAL)(nil)
