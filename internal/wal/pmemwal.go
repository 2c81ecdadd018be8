package wal

import (
	"fmt"
	"sync"
	"time"

	"tierbase/internal/pmem"
)

// PMemLog implements the paper's WAL-PMem strategy (§4.3): every append is
// synchronously persisted to a PMem ring buffer (overcoming the disk IOPS
// bottleneck while keeping per-transaction durability), and a background
// drainer batch-moves records to a conventional file-backed Log, keeping
// the ring small. The backing log is required: it is where records live
// once drained, and what Rotate and RemoveBefore act on.
type PMemLog struct {
	ring *pmem.Ring
	back *Log // slower durable backing store

	mu       sync.Mutex
	closed   bool
	stopCh   chan struct{}
	doneCh   chan struct{}
	drainErr error

	// drainMu serializes ring→backing moves. Drains run from the
	// background loop, from Append backpressure, from Close, and from
	// Rotate; without the lock two concurrent drains could interleave
	// their batches out of append order in the backing log.
	drainMu sync.Mutex

	// DrainBatch is the max records moved per drain cycle.
	DrainBatch int
	// DrainEvery is the drain interval.
	DrainEvery time.Duration
}

// NewPMemLog builds a PMem-backed WAL draining into back, which must not
// be nil; the PMemLog closes it. The caller owns the ring's device.
func NewPMemLog(ring *pmem.Ring, back *Log) *PMemLog {
	if back == nil {
		panic("wal: NewPMemLog without a backing log")
	}
	l := &PMemLog{
		ring:       ring,
		back:       back,
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
		DrainBatch: 256,
		DrainEvery: 50 * time.Millisecond,
	}
	go l.drainLoop()
	return l
}

// Append persists one record to PMem before returning (per-transaction
// durability). If the ring is full it drains synchronously and retries.
func (l *PMemLog) Append(payload []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.drainErr != nil {
		err := l.drainErr
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	for {
		_, err := l.ring.Append(payload)
		if err == nil {
			return nil
		}
		if err != pmem.ErrRingFull {
			return fmt.Errorf("wal: pmem append: %w", err)
		}
		// Backpressure: drain synchronously to make room.
		if derr := l.drainOnce(); derr != nil {
			return derr
		}
	}
}

// drainOnce moves up to DrainBatch records from the ring to the backing log.
func (l *PMemLog) drainOnce() error {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	return l.drainLocked()
}

// drainLocked is drainOnce's body; caller holds drainMu.
func (l *PMemLog) drainLocked() error {
	batch, err := l.ring.ConsumeBatch(l.DrainBatch)
	if err != nil {
		return fmt.Errorf("wal: pmem drain: %w", err)
	}
	if len(batch) == 0 {
		return nil
	}
	for _, rec := range batch {
		if err := l.back.Append(rec); err != nil {
			return fmt.Errorf("wal: pmem drain backing append: %w", err)
		}
	}
	return l.back.Sync()
}

func (l *PMemLog) drainLoop() {
	defer close(l.doneCh)
	t := time.NewTicker(l.DrainEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := l.drainOnce(); err != nil {
				l.mu.Lock()
				if l.drainErr == nil {
					l.drainErr = err
				}
				l.mu.Unlock()
				return
			}
		case <-l.stopCh:
			return
		}
	}
}

// Sync is a no-op: every append is already durable in PMem.
func (l *PMemLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.drainErr
}

// Close stops the drainer, moves remaining records to the backing log, and
// closes the backing log.
func (l *PMemLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stopCh)
	<-l.doneCh
	for l.ring.Len() > 0 {
		if err := l.drainOnce(); err != nil {
			return err
		}
	}
	return l.back.Close()
}

// Rotate drains the ring into the backing log and rotates it, returning
// the new active segment's sequence number. Callers serialize Rotate
// against their own Appends (the LSM holds its commit lock), which
// guarantees no record written after Rotate can land in a pre-rotation
// segment — the invariant RemoveBefore reclamation rests on. Records of
// the OLD memtable that the background drainer races into the new
// segment are harmless: replay filters them by sequence number, they
// are merely retained one rotation longer.
func (l *PMemLog) Rotate() (int, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if err := l.drainErr; err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.mu.Unlock()
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	for l.ring.Len() > 0 {
		if err := l.drainLocked(); err != nil {
			return 0, err
		}
	}
	return l.back.Rotate()
}

// RemoveBefore reclaims checkpointed backing-log segments (see
// Log.RemoveBefore).
func (l *PMemLog) RemoveBefore(seq int) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()
	return l.back.RemoveBefore(seq)
}

// Appender is the WAL interface shared by Log and PMemLog; callers depend
// only on this. Every Appender rotates and reclaims: the LSM seals the
// active segment at each memtable rotation (Rotate returns the segment that
// starts) and frees the segments a flush has checkpointed (RemoveBefore),
// so a wrapper that forwards the interface keeps the log bounded.
type Appender interface {
	Append(payload []byte) error
	Sync() error
	Close() error
	Rotate() (int, error)
	RemoveBefore(seq int) error
}

var (
	_ Appender = (*Log)(nil)
	_ Appender = (*PMemLog)(nil)
)
