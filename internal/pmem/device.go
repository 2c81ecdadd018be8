// Package pmem simulates a persistent-memory device (paper §4.3).
//
// The paper deploys Intel Optane DCPMM in App Direct mode. That hardware is
// not available here, so this package simulates what the paper's cost
// argument reads off PMem: a byte-addressable region that
//
//   - has a fixed capacity, which callers fill and run out of,
//   - is slower than DRAM by a configurable factor (injected latencies,
//     asymmetric: writes cost more than reads, as on Optane),
//   - is cheaper per GB than DRAM in the cost model (see internal/core).
//
// The region is volatile: it lives in process memory and is gone when the
// process exits, so nothing here recovers state across restarts.
//
// Three building blocks are provided: Device (raw region), Arena (value
// allocator used for the DRAM-extension strategy: keys and indexes stay in
// DRAM, values move to PMem), and Ring (the ring buffer the WAL-PMem log
// stages records in before batch-moving them to slower storage).
package pmem

import (
	"errors"
	"sync"
	"time"
)

// Latency describes injected access costs. Zero values disable injection
// (useful in unit tests); benchmarks enable a calibrated profile.
type Latency struct {
	ReadOp   time.Duration // fixed cost per read call
	WriteOp  time.Duration // fixed cost per write call
	ReadPer  time.Duration // additional cost per 256 bytes read
	WritePer time.Duration // additional cost per 256 bytes written
}

// DefaultLatency approximates Optane DCPMM relative to DRAM:
// ~2-3x read latency, ~5-8x write latency at cacheline granularity.
// Values are intentionally tiny; they model relative cost, not wall time.
var DefaultLatency = Latency{
	ReadOp:   150 * time.Nanosecond,
	WriteOp:  400 * time.Nanosecond,
	ReadPer:  30 * time.Nanosecond,
	WritePer: 80 * time.Nanosecond,
}

// spinWait busy-waits for d; time.Sleep cannot express sub-microsecond
// delays, and the point of injection is to shape *relative* throughput.
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

func (l Latency) readCost(n int) time.Duration {
	return l.ReadOp + l.ReadPer*time.Duration((n+255)/256)
}

func (l Latency) writeCost(n int) time.Duration {
	return l.WriteOp + l.WritePer*time.Duration((n+255)/256)
}

// Device is a byte-addressable simulated PMem region.
type Device struct {
	mu     sync.RWMutex
	buf    []byte
	lat    Latency
	closed bool
}

// Errors returned by Device operations.
var (
	ErrClosed      = errors.New("pmem: device closed")
	ErrOutOfBounds = errors.New("pmem: access out of bounds")
)

// OpenVolatile creates an in-memory device of size bytes whose accesses
// cost lat.
func OpenVolatile(size int, lat Latency) *Device {
	return &Device{buf: make([]byte, size), lat: lat}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return len(d.buf) }

// ReadAt copies len(p) bytes from offset off into p.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return 0, ErrClosed
	}
	if off < 0 || off+int64(len(p)) > int64(len(d.buf)) {
		return 0, ErrOutOfBounds
	}
	spinWait(d.lat.readCost(len(p)))
	copy(p, d.buf[off:])
	return len(p), nil
}

// WriteAt copies p into the device at offset off.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if off < 0 || off+int64(len(p)) > int64(len(d.buf)) {
		return 0, ErrOutOfBounds
	}
	spinWait(d.lat.writeCost(len(p)))
	copy(d.buf[off:], p)
	return len(p), nil
}

// Close marks the device closed; later reads and writes fail.
func (d *Device) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
