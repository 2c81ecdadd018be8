package wal

import (
	"fmt"
	"sync"
	"time"

	"tierbase/internal/pmem"
)

// PMemLog is the figure harness's WAL-PMem log (paper §4.3): every append
// is written to a PMem ring buffer before it returns (per-transaction
// persistence, without the disk's IOPS bottleneck), and a background
// drainer batch-moves records to a conventional file-backed Log, keeping
// the ring small. The backing log is required: it is where records live
// once drained. PMemLog is not an Appender; the LSM's WAL is a Log.
type PMemLog struct {
	ring *pmem.Ring
	back *Log // slower durable backing store

	mu       sync.Mutex
	closed   bool
	stopCh   chan struct{}
	doneCh   chan struct{}
	drainErr error

	// drainMu serializes ring→backing moves. Drains run from the
	// background loop, from Append backpressure and from Close; without
	// the lock two concurrent drains could interleave their batches out
	// of append order in the backing log.
	drainMu sync.Mutex
}

const (
	// drainBatch is the max records moved per drain cycle.
	drainBatch = 256
	// drainEvery is the background drain interval.
	drainEvery = 50 * time.Millisecond
)

// NewPMemLog builds a PMem-backed WAL draining into back, which must not
// be nil; the PMemLog closes it. The caller owns the ring's device.
func NewPMemLog(ring *pmem.Ring, back *Log) *PMemLog {
	if back == nil {
		panic("wal: NewPMemLog without a backing log")
	}
	l := &PMemLog{
		ring:   ring,
		back:   back,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go l.drainLoop()
	return l
}

// Append writes one record to PMem before returning (per-transaction
// persistence). If the ring is full it drains synchronously and retries.
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
		err := l.ring.Append(payload)
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

// drainOnce moves up to drainBatch records from the ring to the backing log.
func (l *PMemLog) drainOnce() error {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	batch, err := l.ring.ConsumeBatch(drainBatch)
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
	t := time.NewTicker(drainEvery)
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
