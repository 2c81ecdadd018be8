package pmem

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"
)

// Arena is a value allocator over a Device, implementing the paper's
// DRAM-extension strategy (§4.3): "small, frequently accessed data (keys
// and indexes) are stored in DRAM, while larger value data resides in PMem".
// Callers keep a Ref (offset+length) in their DRAM-resident index and fetch
// values through the arena.
//
// Writes are batched in DRAM and bulk-transferred, matching the paper's
// optimization: "data structures are assembled in DRAM before bulk transfer
// to PMem, reducing the impact on performance costs".
type Arena struct {
	mu   sync.Mutex
	dev  *Device
	next int64
	free map[int][]int64 // size-class -> free offsets
	used int64

	// write batching
	batch    []pendingWrite
	batchLen int
	batchMax int
}

type pendingWrite struct {
	off  int64
	data []byte
}

// Ref locates a value inside the arena.
type Ref struct {
	Off int64
	Len int32
}

// IsZero reports whether the ref is unset.
func (r Ref) IsZero() bool { return r.Off == 0 && r.Len == 0 }

// ErrArenaFull is returned when the device has no room for an allocation.
var ErrArenaFull = errors.New("pmem: arena full")

// sizeClass rounds n up to the allocation granularity (32B classes below
// 1 KiB, 256B classes above) to bound fragmentation.
func sizeClass(n int) int {
	switch {
	case n <= 0:
		return 32
	case n < 1024:
		return (n + 31) &^ 31
	default:
		return (n + 255) &^ 255
	}
}

// NewArena creates an arena over dev. batchMax bounds the DRAM staging
// buffer in bytes before an automatic flush to the device (0 = 64 KiB).
func NewArena(dev *Device, batchMax int) *Arena {
	if batchMax <= 0 {
		batchMax = 64 << 10
	}
	return &Arena{
		dev:      dev,
		next:     headerSlot, // offset 0..headerSlot reserved (Ref zero-value must stay invalid)
		free:     make(map[int][]int64),
		batchMax: batchMax,
	}
}

// headerSlot reserves the first bytes of the device so that offset 0 is
// never a valid allocation (keeps Ref{} meaning "absent").
const headerSlot = 64

// Put stores val and returns its ref. The data is staged in DRAM and
// transferred in batches; call Sync for durability.
func (a *Arena) Put(val []byte) (Ref, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cls := sizeClass(len(val) + 4) // 4-byte length header
	var off int64
	if lst := a.free[cls]; len(lst) > 0 {
		off = lst[len(lst)-1]
		a.free[cls] = lst[:len(lst)-1]
	} else {
		if a.next+int64(cls) > int64(a.dev.Size()) {
			return Ref{}, ErrArenaFull
		}
		off = a.next
		a.next += int64(cls)
	}
	buf := make([]byte, 4+len(val))
	binary.LittleEndian.PutUint32(buf, uint32(len(val)))
	copy(buf[4:], val)
	a.batch = append(a.batch, pendingWrite{off: off, data: buf})
	a.batchLen += len(buf)
	a.used += int64(cls)
	if a.batchLen >= a.batchMax {
		if err := a.drainLocked(); err != nil {
			return Ref{}, err
		}
	}
	return Ref{Off: off, Len: int32(len(val))}, nil
}

// drainLocked bulk-writes the staged batch to the device. Writes are
// coalesced into runs of adjacent offsets to model bulk transfer.
func (a *Arena) drainLocked() error {
	if len(a.batch) == 0 {
		return nil
	}
	sort.Slice(a.batch, func(i, j int) bool { return a.batch[i].off < a.batch[j].off })
	runStart := a.batch[0].off
	run := append([]byte(nil), a.batch[0].data...)
	flushRun := func() error {
		_, err := a.dev.WriteAt(run, runStart)
		return err
	}
	for _, w := range a.batch[1:] {
		if w.off == runStart+int64(len(run)) {
			run = append(run, w.data...)
			continue
		}
		if err := flushRun(); err != nil {
			return err
		}
		runStart, run = w.off, append(run[:0], w.data...)
	}
	if err := flushRun(); err != nil {
		return err
	}
	a.batch = a.batch[:0]
	a.batchLen = 0
	return nil
}

// Sync drains the staging buffer and flushes the device.
func (a *Arena) Sync() error {
	a.mu.Lock()
	if err := a.drainLocked(); err != nil {
		a.mu.Unlock()
		return err
	}
	a.mu.Unlock()
	return a.dev.Flush()
}

// Get fetches the value for ref. The staging buffer is consulted first so
// unsynced values are readable (cache-coherent view).
func (a *Arena) Get(ref Ref) ([]byte, error) {
	if ref.IsZero() {
		return nil, errors.New("pmem: zero ref")
	}
	a.mu.Lock()
	for i := len(a.batch) - 1; i >= 0; i-- {
		if a.batch[i].off == ref.Off {
			val := make([]byte, ref.Len)
			copy(val, a.batch[i].data[4:])
			a.mu.Unlock()
			return val, nil
		}
	}
	a.mu.Unlock()
	buf := make([]byte, 4+int(ref.Len))
	if _, err := a.dev.ReadAt(buf, ref.Off); err != nil {
		return nil, err
	}
	stored := binary.LittleEndian.Uint32(buf)
	if stored != uint32(ref.Len) {
		return nil, errors.New("pmem: ref length mismatch (corrupt or stale ref)")
	}
	return buf[4:], nil
}

// Free returns the allocation to the free list for reuse.
func (a *Arena) Free(ref Ref) {
	if ref.IsZero() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Drop any staged write for this ref.
	for i := range a.batch {
		if a.batch[i].off == ref.Off {
			a.batchLen -= len(a.batch[i].data)
			a.batch = append(a.batch[:i], a.batch[i+1:]...)
			break
		}
	}
	cls := sizeClass(int(ref.Len) + 4)
	a.free[cls] = append(a.free[cls], ref.Off)
	a.used -= int64(cls)
}

// Used reports bytes currently allocated (including class rounding).
func (a *Arena) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}
