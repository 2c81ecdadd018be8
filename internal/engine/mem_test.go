package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tierbase/internal/compress"
)

// heapKeys is large enough that per-stripe index tables sit at a typical
// load factor and the runtime's own noise (a few hundred KB) is under 1%.
const heapKeys = 100_000

// tailCompressor is the tests' stand-in for a trained compressor: it
// stores a value as the length of its run of trailing zero bytes followed
// by the bytes before the run, so a test picks the stored size exactly by
// choosing how much of a value is zero tail.
type tailCompressor struct{}

func (tailCompressor) Name() string         { return "tail" }
func (tailCompressor) Train([][]byte) error { return nil }

func (tailCompressor) Compress(src []byte) []byte {
	body := bytes.TrimRight(src, "\x00")
	out := binary.AppendUvarint(nil, uint64(len(src)-len(body)))
	return append(out, body...)
}

func (tailCompressor) Decompress(src []byte) ([]byte, error) {
	zeros, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, compress.ErrCorrupt
	}
	return append(append([]byte{}, src[n:]...), make([]byte, zeros)...), nil
}

var _ compress.Compressor = tailCompressor{}

// zeroTailed returns a value of n random non-zero bytes followed by tail
// zero bytes: tailCompressor stores it in n+1 bytes.
func zeroTailed(rng *rand.Rand, n, tail int) []byte {
	val := make([]byte, n+tail)
	rng.Read(val[:n])
	for i := range val[:n] {
		val[i] |= 1
	}
	return val
}

// heapAfterGC returns the live heap once garbage is gone.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fillHeapKeys stores heapKeys 14-byte keys whose stored value is stored
// bytes long (compressed from twice that when compressed is set), with a
// TTL on each when ttl is set, and returns the heap growth the engine
// caused. Keys are formatted on the fly: the engine must own every byte
// it keeps.
func fillHeapKeys(e *Engine, stored int, compressed, ttl bool) int64 {
	rng := rand.New(rand.NewSource(1))
	before := heapAfterGC()
	for i := 0; i < heapKeys; i++ {
		val := zeroTailed(rng, stored, 0)
		if compressed {
			val = zeroTailed(rng, stored-1, stored+1)
		}
		key := fmt.Sprintf("user:%09d", i)
		if err := e.Set(key, val); err != nil {
			panic(err)
		}
		if ttl {
			e.Expire(key, time.Hour)
		}
	}
	return int64(heapAfterGC()) - int64(before)
}

// TestMemUsedTracksHeap is the accounting contract: MemUsed is the bytes
// the engine holds, not a guess. It is checked against the Go heap for the
// stored-value sizes of the ledger's workloads (18 B: PBC'd KV1 records,
// which were 38 B under the per-slot-tagged format; 128 B; 256 B), with and
// without TTLs and a compressor.
func TestMemUsedTracksHeap(t *testing.T) {
	for _, stored := range []int{18, 38, 128, 256} {
		for _, compressed := range []bool{false, true} {
			for _, ttl := range []bool{false, true} {
				name := fmt.Sprintf("stored=%d/compressed=%v/ttl=%v", stored, compressed, ttl)
				t.Run(name, func(t *testing.T) {
					opts := Options{}
					if compressed {
						opts.Compressor = tailCompressor{}
					}
					e := New(opts)
					heap := fillHeapKeys(e, stored, compressed, ttl)
					used := e.MemUsed()
					ratio := float64(used) / float64(heap)
					t.Logf("heap %.1f B/key, accounted %.1f B/key, ratio %.3f",
						float64(heap)/heapKeys, float64(used)/heapKeys, ratio)
					if ratio < 0.85 || ratio > 1.15 {
						t.Errorf("MemUsed %d vs heap growth %d: ratio %.3f outside [0.85, 1.15]", used, heap, ratio)
					}
					// The ledger's hit-read record: the map[string]*item
					// layout spent 243 B of heap on it.
					if perKey := float64(heap) / heapKeys; stored == 38 && perKey > 100 {
						t.Errorf("heap per key = %.1f B, want <= 100", perKey)
					}
					e.FlushAll()
					if got := e.MemUsed(); got != 0 {
						t.Errorf("MemUsed after FlushAll = %d, want 0", got)
					}
					runtime.KeepAlive(e)
				})
			}
		}
	}
}

// TestAllocBytesMatchesRuntime: the accounting's idea of an allocation's
// size is the running allocator's, small classes and whole pages alike.
func TestAllocBytesMatchesRuntime(t *testing.T) {
	for n := 1; n < 100_000; n += 1 + n/16 {
		if got, want := allocBytes(n), cap(append([]byte(nil), make([]byte, n)...)); got != int64(want) {
			t.Fatalf("allocBytes(%d) = %d, the runtime allocates %d", n, got, want)
		}
	}
}
