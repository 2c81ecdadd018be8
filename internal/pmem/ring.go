package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Ring is a persistent ring buffer over a Device, implementing the paper's
// WAL-on-PMem strategy (§4.3): "WAL files are first written to a PMem-based
// persistent ring buffer, then batch-moved to cloud storage, achieving high
// throughput and real-time persistence".
//
// Layout:
//
//	[0,  8)  head (consume offset, monotonically increasing logical offset)
//	[8, 16)  tail (append offset, logical)
//	[16,24)  capacity (sanity check on reopen)
//	[64, 64+cap) data region, logical offsets wrap modulo cap
//
// Each record: 4-byte length, 4-byte CRC32C, payload.
// Append persists the record region and the tail pointer; ConsumeBatch
// persists the head pointer. Recovery trusts the persisted pointers.
type Ring struct {
	mu  sync.Mutex
	dev *Device
	cap int64
	// logical offsets; data offset = headerSize + logical%cap
	head int64
	tail int64
}

const (
	ringHeaderSize = 64
	recHeaderSize  = 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Ring errors.
var (
	ErrRingFull  = errors.New("pmem: ring full")
	ErrRingEmpty = errors.New("pmem: ring empty")
	ErrCorrupt   = errors.New("pmem: ring record corrupt")
	ErrTooLarge  = errors.New("pmem: record larger than ring capacity")
)

// NewRing initializes (or recovers) a ring over dev. The usable capacity is
// dev.Size() - 64 header bytes.
func NewRing(dev *Device) (*Ring, error) {
	if dev.Size() <= ringHeaderSize+recHeaderSize {
		return nil, fmt.Errorf("pmem: device too small for ring (%d bytes)", dev.Size())
	}
	r := &Ring{dev: dev, cap: int64(dev.Size() - ringHeaderSize)}
	hdr := make([]byte, 24)
	if _, err := dev.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	head := int64(binary.LittleEndian.Uint64(hdr[0:8]))
	tail := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	capStored := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	if capStored != 0 && capStored != r.cap {
		return nil, fmt.Errorf("pmem: ring capacity changed (%d -> %d)", capStored, r.cap)
	}
	if head < 0 || tail < head || tail-head > r.cap {
		// Corrupt header — reset (a fresh device also lands here with 0,0).
		head, tail = 0, 0
	}
	r.head, r.tail = head, tail
	if err := r.writeHeader(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Ring) writeHeader() error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(r.head))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(r.tail))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(r.cap))
	if _, err := r.dev.WriteAt(hdr, 0); err != nil {
		return err
	}
	return r.dev.FlushRange(0, 24)
}

// writeWrapped writes p at logical offset lo, wrapping modulo cap.
func (r *Ring) writeWrapped(p []byte, lo int64) error {
	pos := lo % r.cap
	first := r.cap - pos
	if int64(len(p)) <= first {
		_, err := r.dev.WriteAt(p, ringHeaderSize+pos)
		if err != nil {
			return err
		}
		return r.dev.FlushRange(ringHeaderSize+pos, len(p))
	}
	if _, err := r.dev.WriteAt(p[:first], ringHeaderSize+pos); err != nil {
		return err
	}
	if err := r.dev.FlushRange(ringHeaderSize+pos, int(first)); err != nil {
		return err
	}
	if _, err := r.dev.WriteAt(p[first:], ringHeaderSize); err != nil {
		return err
	}
	return r.dev.FlushRange(ringHeaderSize, len(p)-int(first))
}

func (r *Ring) readWrapped(p []byte, lo int64) error {
	pos := lo % r.cap
	first := r.cap - pos
	if int64(len(p)) <= first {
		_, err := r.dev.ReadAt(p, ringHeaderSize+pos)
		return err
	}
	if _, err := r.dev.ReadAt(p[:first], ringHeaderSize+pos); err != nil {
		return err
	}
	_, err := r.dev.ReadAt(p[first:], ringHeaderSize)
	return err
}

// Append writes one record durably and returns its logical offset.
func (r *Ring) Append(payload []byte) (int64, error) {
	need := int64(recHeaderSize + len(payload))
	if need > r.cap {
		return 0, ErrTooLarge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tail-r.head+need > r.cap {
		return 0, ErrRingFull
	}
	rec := make([]byte, need)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
	copy(rec[recHeaderSize:], payload)
	off := r.tail
	if err := r.writeWrapped(rec, off); err != nil {
		return 0, err
	}
	r.tail += need
	if err := r.writeHeader(); err != nil {
		return 0, err
	}
	return off, nil
}

// ConsumeBatch removes up to max records, returning them oldest-first.
// This is the "batch-moved to cloud storage" drain path.
func (r *Ring) ConsumeBatch(max int) ([][]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][]byte
	for len(out) < max {
		payload, next, err := r.peekLocked()
		if err == ErrRingEmpty {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, payload)
		r.head = next
	}
	if len(out) > 0 {
		if err := r.writeHeader(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// peekLocked reads the record at head without consuming it.
func (r *Ring) peekLocked() (payload []byte, next int64, err error) {
	if r.head == r.tail {
		return nil, 0, ErrRingEmpty
	}
	hdr := make([]byte, recHeaderSize)
	if err := r.readWrapped(hdr, r.head); err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(recHeaderSize+n) > r.tail-r.head {
		return nil, 0, ErrCorrupt
	}
	payload = make([]byte, n)
	if err := r.readWrapped(payload, r.head+recHeaderSize); err != nil {
		return nil, 0, err
	}
	if crc32.Checksum(payload, crcTable) != want {
		return nil, 0, ErrCorrupt
	}
	return payload, r.head + recHeaderSize + int64(n), nil
}

// Len reports the number of unconsumed bytes.
func (r *Ring) Len() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tail - r.head
}
