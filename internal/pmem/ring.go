package pmem

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
)

// Ring is a ring buffer over a Device, implementing the paper's
// WAL-on-PMem strategy (§4.3): "WAL files are first written to a PMem-based
// persistent ring buffer, then batch-moved to cloud storage, achieving high
// throughput and real-time persistence".
//
// Layout:
//
//	[0,  8)  head (consume offset, monotonically increasing logical offset)
//	[8, 16)  tail (append offset, logical)
//	[64, 64+cap) data region, logical offsets wrap modulo cap
//
// Each record: 4-byte length, 4-byte CRC32C, payload. Append writes the
// record and the tail pointer, ConsumeBatch the head pointer: the device
// writes that persisting them would cost on PMem.
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

// NewRing starts an empty ring over dev, which must be fresh. The usable
// capacity is dev.Size() - 64 header bytes.
func NewRing(dev *Device) *Ring {
	return &Ring{dev: dev, cap: int64(dev.Size() - ringHeaderSize)}
}

func (r *Ring) writeHeader() error {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(r.head))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(r.tail))
	_, err := r.dev.WriteAt(hdr, 0)
	return err
}

// writeWrapped writes p at logical offset lo, wrapping modulo cap.
func (r *Ring) writeWrapped(p []byte, lo int64) error {
	pos := lo % r.cap
	first := r.cap - pos
	if int64(len(p)) <= first {
		_, err := r.dev.WriteAt(p, ringHeaderSize+pos)
		return err
	}
	if _, err := r.dev.WriteAt(p[:first], ringHeaderSize+pos); err != nil {
		return err
	}
	_, err := r.dev.WriteAt(p[first:], ringHeaderSize)
	return err
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

// Append writes one record.
func (r *Ring) Append(payload []byte) error {
	need := int64(recHeaderSize + len(payload))
	if need > r.cap {
		return ErrTooLarge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tail-r.head+need > r.cap {
		return ErrRingFull
	}
	rec := make([]byte, need)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
	copy(rec[recHeaderSize:], payload)
	if err := r.writeWrapped(rec, r.tail); err != nil {
		return err
	}
	r.tail += need
	return r.writeHeader()
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
