// Package wal implements the write-ahead log used by the cache tier and the
// LSM storage tier for durability. Two backends are provided:
//
//   - Log: segmented append-only files on disk (the SSD path), with
//     configurable sync policy (always / every interval / never), matching
//     the paper's "WAL mode ... uses SSDs and asynchronous disk flushes
//     every second" (§6.2.2);
//   - PMemLog (pmemwal.go): a persistent-memory ring buffer synced per
//     transaction and batch-drained to a slower backing Log, which it
//     always has, matching "WAL-PMem synchronizes to PMem per transaction"
//     (§4.3, §6.2.2).
//
// Both implement Appender, and every Appender rotates and reclaims: Rotate
// seals the active segment and RemoveBefore deletes checkpointed ones, so
// the log a writer keeps is bounded by what is not yet checkpointed.
//
// Record format: 4-byte little-endian length, 4-byte CRC32C, payload.
// Replay stops reading a segment at a torn tail (see Replay for which
// damage is a torn tail and which is corruption).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// SyncPolicy controls when appended records are made durable.
type SyncPolicy int

// Sync policies.
const (
	// SyncAlways fsyncs after every append (highest durability, lowest perf).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per SyncEvery duration (Redis
	// appendfsync-everysec analog; the paper's default WAL mode).
	SyncInterval
	// SyncNever leaves syncing to the OS.
	SyncNever
)

const (
	recHeaderSize = 8
	segPrefix     = "wal-"
	segSuffix     = ".log"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	Dir             string
	Policy          SyncPolicy
	SyncEvery       time.Duration // used by SyncInterval; default 1s
	MaxSegmentBytes int64         // rotate when the active segment exceeds this; default 64 MiB
}

func (o *Options) fill() {
	if o.SyncEvery <= 0 {
		o.SyncEvery = time.Second
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
}

// Log is a segmented append-only write-ahead log.
//
// Under SyncInterval no fsync runs under mu, the lock every Append takes:
// the ticker flushes the buffer under mu and fsyncs outside it, and a
// rotation hands the segment it sealed to the ticker to fsync and close. A
// record is therefore on disk within SyncEvery (plus one fsync) of its
// Append, whichever segment it is in.
type Log struct {
	mu      sync.Mutex
	opts    Options
	seq     int // active segment sequence number
	f       *os.File
	w       *bufio.Writer
	size    int64
	closed  bool
	stopCh  chan struct{}
	doneCh  chan struct{}
	syncErr error
	syncs   int64

	// sealed holds the segments a SyncInterval rotation left open, oldest
	// first: written out to the OS, not yet fsynced. syncMu is held across
	// every fsync made outside mu and by whoever else closes a file such an
	// fsync may be using; it is taken before mu.
	sealed []sealedSegment
	syncMu sync.Mutex
}

type sealedSegment struct {
	seq int
	f   *os.File
}

// Open creates or appends to a log in dir.
func Open(opts Options) (*Log, error) {
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	seq := 1
	if len(segs) > 0 {
		seq = segs[len(segs)-1]
	}
	l := &Log{opts: opts, seq: seq, stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	if err := l.openSegment(seq); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.doneCh)
	}
	return l, nil
}

func segName(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix))
}

func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir: %w", err)
	}
	var segs []int
	for _, e := range ents {
		name := e.Name()
		var seq int
		if n, _ := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &seq); n == 1 {
			segs = append(segs, seq)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

func (l *Log) openSegment(seq int) error {
	f, err := os.OpenFile(segName(l.opts.Dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat segment: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 64<<10)
	l.size = st.Size()
	l.seq = seq
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.doneCh)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := l.intervalSync(); err != nil {
				l.mu.Lock()
				if l.syncErr == nil {
					l.syncErr = err
				}
				l.mu.Unlock()
			}
		case <-l.stopCh:
			return
		}
	}
}

// intervalSync makes everything appended so far durable: the sealed
// segments first, oldest first, so that what is on disk is always a prefix
// of the log, then the active one. Appends wait for the buffer flush only.
func (l *Log) intervalSync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.w.Flush()
	active, sealed := l.f, l.sealed
	l.sealed = nil
	l.syncs += int64(len(sealed)) + 1
	l.mu.Unlock()
	for _, s := range sealed {
		if serr := syncClose(s.f); err == nil {
			err = serr
		}
	}
	if err != nil {
		return err
	}
	return active.Sync()
}

func syncClose(f *os.File) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *Log) flushSyncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.syncs++
	return l.f.Sync()
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("wal: closed")

// Append writes one record; durability follows the sync policy.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(recHeaderSize + len(payload))
	if l.opts.Policy == SyncAlways {
		if err := l.flushSyncLocked(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	if l.size >= l.opts.MaxSegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment and opens the next. Under
// SyncInterval the sealed segment is only written out here; its fsync and
// close are the ticker's (intervalSync), so the appender holding mu does not
// wait for the disk. The other policies have no ticker and seal inline.
func (l *Log) rotateLocked() error {
	if l.opts.Policy == SyncInterval {
		if err := l.w.Flush(); err != nil {
			return fmt.Errorf("wal: rotate flush: %w", err)
		}
		l.sealed = append(l.sealed, sealedSegment{l.seq, l.f})
		return l.openSegment(l.seq + 1)
	}
	if err := l.flushSyncLocked(); err != nil {
		return fmt.Errorf("wal: rotate flush: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	return l.openSegment(l.seq + 1)
}

// Sync forces every record appended so far to durable storage.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.syncSealedLocked(); err != nil {
		return err
	}
	return l.flushSyncLocked()
}

// syncSealedLocked fsyncs and closes the sealed segments inline. Caller
// holds syncMu and mu.
func (l *Log) syncSealedLocked() error {
	var err error
	for _, s := range l.sealed {
		l.syncs++
		if serr := syncClose(s.f); err == nil {
			err = serr
		}
	}
	l.sealed = nil
	return err
}

// Syncs reports the number of sync operations performed.
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Close flushes, syncs and closes the log, sealed segments included.
func (l *Log) Close() error {
	l.syncMu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.syncMu.Unlock()
		return nil
	}
	l.closed = true
	err := l.syncSealedLocked()
	if serr := l.flushSyncLocked(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	l.syncMu.Unlock() // before the wait: the ticker may be queued on it
	close(l.stopCh)
	<-l.doneCh
	return err
}

// Rotate seals the active segment (flushing buffered records; see
// rotateLocked for who fsyncs it) and starts a new one, returning the new
// segment's sequence number. The
// LSM uses this at memtable rotation: every record of the sealed memtable
// lives in segments older than the returned sequence, so once that
// memtable is flushed to an SSTable those segments can be reclaimed with
// RemoveBefore — without ever truncating records the active memtable
// still needs for crash recovery.
func (l *Log) Rotate() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.seq, nil
}

// RemoveBefore deletes all segments with sequence < seq. The caller
// asserts that every record in those segments has been checkpointed
// (flushed into SSTables and recorded in the manifest).
func (l *Log) RemoveBefore(seq int) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// A sealed segment still waiting for its fsync needs none once its
	// records are checkpointed: it is closed and goes with the rest.
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.seq < seq {
			s.f.Close()
		} else {
			kept = append(kept, s)
		}
	}
	l.sealed = kept
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s >= seq || s == l.seq {
			continue
		}
		if err := os.Remove(segName(l.opts.Dir, s)); err != nil {
			return fmt.Errorf("wal: remove segment: %w", err)
		}
	}
	return nil
}

// Replay invokes fn for every intact record across all segments in dir, in
// append order. A torn tail (a record the end of its file cuts short, or
// one that is the last thing in its file and fails its checksum) ends that
// segment without error, whichever segment it is: a SyncInterval rotation
// seals a segment before its last records are fsynced, so a power loss can
// tear a sealed segment as it can the active one, and what it tore was
// appended within SyncEvery of the crash. Replay goes on with the next
// segment. A damaged record with more data after it is corruption and an
// error, except in the last segment, where it ends replay.
func Replay(dir string, fn func(payload []byte) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for i, seq := range segs {
		last := i == len(segs)-1
		if err := replaySegment(segName(dir, seq), last, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, lastSegment bool, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: replay stat: %w", err)
	}
	remaining := fi.Size()
	r := bufio.NewReaderSize(f, 64<<10)
	var hdr [recHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil // the end, or a torn header at the tail
			}
			return fmt.Errorf("wal: replay %s: %w", path, err)
		}
		remaining -= recHeaderSize
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(n) > remaining {
			// The claimed length overruns the file: a torn tail. Checking
			// BEFORE allocating keeps a flipped length byte (up to 4 GiB)
			// from sizing the buffer it asks for.
			return nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return nil // torn payload at tail
			}
			return fmt.Errorf("wal: replay %s: %w", path, err)
		}
		remaining -= int64(n)
		if crc32.Checksum(payload, crcTable) != want {
			if lastSegment || remaining == 0 {
				return nil // torn write detected by checksum
			}
			return fmt.Errorf("wal: replay %s: corrupt record mid-log", path)
		}
		if err := fn(payload); err != nil {
			return err
		}
	}
}
