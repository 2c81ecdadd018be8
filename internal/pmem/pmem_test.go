package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDeviceReadWrite(t *testing.T) {
	d := OpenVolatile(1024, Latency{})
	data := []byte("hello pmem")
	if _, err := d.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestDeviceBounds(t *testing.T) {
	d := OpenVolatile(64, Latency{})
	if _, err := d.WriteAt(make([]byte, 65), 0); err != ErrOutOfBounds {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
	if _, err := d.WriteAt([]byte{1}, 64); err != ErrOutOfBounds {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
	if _, err := d.ReadAt([]byte{0}, -1); err != ErrOutOfBounds {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
}

func TestDevicePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pmem.dat")
	d, err := Open(path, 4096, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("durable"), 7); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(path, 4096, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, 7)
	if _, err := d2.ReadAt(got, 7); err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("recovered %q", got)
	}
}

func TestDeviceSizeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pmem.dat")
	d, err := Open(path, 1024, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := Open(path, 2048, Latency{}); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestDeviceClosed(t *testing.T) {
	d := OpenVolatile(64, Latency{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{1}, 0); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := d.ReadAt([]byte{1}, 0); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close should be nil, got %v", err)
	}
}

func TestDeviceLatencyInjection(t *testing.T) {
	lat := Latency{WriteOp: 200 * time.Microsecond}
	d := OpenVolatile(1024, lat)
	start := time.Now()
	for i := 0; i < 10; i++ {
		d.WriteAt([]byte{1}, 0)
	}
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("latency injection ineffective: %v", el)
	}
}

func TestDeviceConcurrent(t *testing.T) {
	d := OpenVolatile(1<<16, Latency{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := []byte{byte(g)}
			off := int64(g * 1024)
			for i := 0; i < 500; i++ {
				d.WriteAt(buf, off)
				got := make([]byte, 1)
				d.ReadAt(got, off)
				if got[0] != byte(g) {
					t.Errorf("goroutine %d read %d", g, got[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// --- Arena ---

func TestArenaPutGet(t *testing.T) {
	a := NewArena(OpenVolatile(1<<20, Latency{}), 0)
	ref, err := a.Put([]byte("value-1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "value-1" {
		t.Fatalf("got %q", got)
	}
}

func TestArenaGetAfterSync(t *testing.T) {
	a := NewArena(OpenVolatile(1<<20, Latency{}), 0)
	ref, _ := a.Put([]byte("synced"))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "synced" {
		t.Fatalf("got %q", got)
	}
}

func TestArenaZeroRef(t *testing.T) {
	a := NewArena(OpenVolatile(1<<20, Latency{}), 0)
	if _, err := a.Get(Ref{}); err == nil {
		t.Fatal("zero ref should error")
	}
	a.Free(Ref{}) // must not panic
}

func TestArenaReuseAfterFree(t *testing.T) {
	a := NewArena(OpenVolatile(1<<20, Latency{}), 0)
	ref1, _ := a.Put(make([]byte, 100))
	a.Sync()
	a.Free(ref1)
	ref2, _ := a.Put(make([]byte, 100))
	if ref1.Off != ref2.Off {
		t.Fatalf("free slot not reused: %d vs %d", ref1.Off, ref2.Off)
	}
}

func TestArenaFull(t *testing.T) {
	a := NewArena(OpenVolatile(256, Latency{}), 0)
	var lastErr error
	for i := 0; i < 100; i++ {
		if _, err := a.Put(make([]byte, 64)); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr != ErrArenaFull {
		t.Fatalf("want ErrArenaFull, got %v", lastErr)
	}
}

func TestArenaUsedAccounting(t *testing.T) {
	a := NewArena(OpenVolatile(1<<20, Latency{}), 0)
	if a.Used() != 0 {
		t.Fatal("fresh arena not empty")
	}
	ref, _ := a.Put(make([]byte, 60)) // class 64
	if a.Used() != 64 {
		t.Fatalf("used = %d, want 64", a.Used())
	}
	a.Free(ref)
	if a.Used() != 0 {
		t.Fatalf("used after free = %d", a.Used())
	}
}

func TestArenaManyValuesRoundTrip(t *testing.T) {
	a := NewArena(OpenVolatile(4<<20, Latency{}), 1024)
	rng := rand.New(rand.NewSource(9))
	refs := make([]Ref, 0, 500)
	vals := make([][]byte, 0, 500)
	for i := 0; i < 500; i++ {
		v := make([]byte, 1+rng.Intn(2000))
		rng.Read(v)
		ref, err := a.Put(v)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		vals = append(vals, v)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		got, err := a.Get(ref)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, vals[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestSizeClassProperty(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw)
		c := sizeClass(n)
		return c >= n && c >= 32 && (c%32 == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Ring ---

// consume removes and returns the ring's oldest record, or ErrRingEmpty.
func consume(r *Ring) ([]byte, error) {
	batch, err := r.ConsumeBatch(1)
	if err == nil && len(batch) == 0 {
		err = ErrRingEmpty
	}
	if err != nil {
		return nil, err
	}
	return batch[0], nil
}

func TestRingAppendConsume(t *testing.T) {
	r, err := NewRing(OpenVolatile(4096, Latency{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := consume(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("got %q at %d", got, i)
		}
	}
	if _, err := consume(r); err != ErrRingEmpty {
		t.Fatalf("want ErrRingEmpty, got %v", err)
	}
}

func TestRingWrapAround(t *testing.T) {
	r, err := NewRing(OpenVolatile(ringHeaderSize+128, Latency{}))
	if err != nil {
		t.Fatal(err)
	}
	// Repeatedly fill and drain so offsets wrap several times.
	payload := bytes.Repeat([]byte("x"), 40)
	for round := 0; round < 20; round++ {
		if _, err := r.Append(payload); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, err := consume(r)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: payload corrupted across wrap", round)
		}
	}
}

func TestRingFull(t *testing.T) {
	r, err := NewRing(OpenVolatile(ringHeaderSize+64, Latency{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(make([]byte, 40)); err != ErrRingFull {
		t.Fatalf("want ErrRingFull, got %v", err)
	}
	if _, err := r.Append(make([]byte, 1000)); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestRingConsumeBatch(t *testing.T) {
	r, _ := NewRing(OpenVolatile(4096, Latency{}))
	for i := 0; i < 5; i++ {
		r.Append([]byte{byte(i)})
	}
	batch, err := r.ConsumeBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 || batch[0][0] != 0 || batch[2][0] != 2 {
		t.Fatalf("bad batch: %v", batch)
	}
	batch, _ = r.ConsumeBatch(10)
	if len(batch) != 2 {
		t.Fatalf("second batch len %d", len(batch))
	}
	batch, err = r.ConsumeBatch(10)
	if err != nil || len(batch) != 0 {
		t.Fatalf("empty batch: %v %v", batch, err)
	}
}

func TestRingRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.dat")
	dev, err := Open(path, 4096, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(dev)
	if err != nil {
		t.Fatal(err)
	}
	r.Append([]byte("survive-1"))
	r.Append([]byte("survive-2"))
	if _, err := consume(r); err != nil {
		t.Fatal(err)
	}
	dev.Close()

	dev2, err := Open(path, 4096, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	r2, err := NewRing(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() == 0 {
		t.Fatal("recovered ring should have one record")
	}
	got, err := consume(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survive-2" {
		t.Fatalf("recovered %q", got)
	}
}

func TestRingLen(t *testing.T) {
	r, _ := NewRing(OpenVolatile(4096, Latency{}))
	if r.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	r.Append([]byte("abcd"))
	if r.Len() != recHeaderSize+4 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestRingPropertyRoundTrip(t *testing.T) {
	// Property: any sequence of appends drains back in order with equal bytes.
	f := func(payloads [][]byte) bool {
		r, err := NewRing(OpenVolatile(1<<20, Latency{}))
		if err != nil {
			return false
		}
		var kept [][]byte
		for _, p := range payloads {
			if len(p) > 1000 {
				p = p[:1000]
			}
			if _, err := r.Append(p); err != nil {
				return false
			}
			kept = append(kept, p)
		}
		for _, want := range kept {
			got, err := consume(r)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
