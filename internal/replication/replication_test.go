package replication

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestOpLogAppendAndStream(t *testing.T) {
	l := NewOpLog(16)
	if got := l.Append(OpSet, "a", []byte("1")); got != 1 {
		t.Fatalf("first seq = %d, want 1", got)
	}
	l.Append(OpDel, "b", nil)
	l.Append(OpSetEncoded, "c", []byte{0xFF, 1})

	s, err := l.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := s.Recv(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want 3", len(ops))
	}
	if ops[0].Key != "a" || ops[0].Kind != OpSet || string(ops[0].Val) != "1" {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if ops[1].Kind != OpDel || ops[1].Val != nil {
		t.Fatalf("op1 = %+v", ops[1])
	}
	if ops[2].Kind != OpSetEncoded || ops[2].Seq != 3 {
		t.Fatalf("op2 = %+v", ops[2])
	}
}

func TestOpLogAppendCopiesValue(t *testing.T) {
	l := NewOpLog(4)
	buf := []byte("orig")
	l.Append(OpSet, "k", buf)
	copy(buf, "XXXX") // caller reuses its buffer (RESP arena behavior)
	s, _ := l.Stream(0)
	ops, _ := s.Recv(nil)
	if string(ops[0].Val) != "orig" {
		t.Fatalf("val aliased caller buffer: %q", ops[0].Val)
	}
}

func TestOpLogStreamBlocksUntilAppend(t *testing.T) {
	l := NewOpLog(16)
	s, _ := l.Stream(0)
	got := make(chan []Op, 1)
	go func() {
		ops, err := s.Recv(nil)
		if err != nil {
			t.Error(err)
		}
		got <- ops
	}()
	time.Sleep(20 * time.Millisecond)
	l.Append(OpSet, "k", []byte("v"))
	select {
	case ops := <-got:
		if len(ops) != 1 || ops[0].Key != "k" {
			t.Fatalf("ops = %+v", ops)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not wake on Append")
	}
}

func TestOpLogTrim(t *testing.T) {
	l := NewOpLog(4)
	for i := 0; i < 10; i++ {
		l.Append(OpSet, "k", []byte("v"))
	}
	if start := l.StartSeq(); start != 7 {
		t.Fatalf("start = %d, want 7 (cap 4, seq 10)", start)
	}
	if _, err := l.Stream(0); !errors.Is(err, ErrLogTrimmed) {
		t.Fatalf("Stream(0) err = %v, want ErrLogTrimmed", err)
	}
	s, err := l.Stream(6) // exactly at the window edge
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := s.Recv(nil)
	if len(ops) != 4 || ops[0].Seq != 7 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestOpLogStreamTrimmedWhileWaiting(t *testing.T) {
	l := NewOpLog(2)
	l.Append(OpSet, "a", nil)
	s, _ := l.Stream(0)
	if _, err := s.Recv(nil); err != nil { // drain seq 1
		t.Fatal(err)
	}
	// Push the window past the cursor while it is idle.
	for i := 0; i < 5; i++ {
		l.Append(OpSet, "b", nil)
	}
	if _, err := s.Recv(nil); !errors.Is(err, ErrLogTrimmed) {
		t.Fatalf("err = %v, want ErrLogTrimmed", err)
	}
}

func TestOpLogAppendAt(t *testing.T) {
	l := NewOpLog(16)
	if err := l.AppendAt(Op{Seq: 1, Kind: OpSet, Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAt(Op{Seq: 1, Kind: OpSet, Key: "a"}); err != nil {
		t.Fatalf("duplicate redelivery should be ignored: %v", err)
	}
	if err := l.AppendAt(Op{Seq: 3, Kind: OpSet, Key: "c"}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap err = %v, want ErrSeqGap", err)
	}
	if err := l.AppendAt(Op{Seq: 2, Kind: OpSet, Key: "b"}); err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", l.Seq())
	}
	// Promotion continues the mirrored sequence.
	if got := l.Append(OpSet, "d", nil); got != 3 {
		t.Fatalf("post-promotion seq = %d, want 3", got)
	}
}

func TestOpLogReset(t *testing.T) {
	l := NewOpLog(16)
	l.Append(OpSet, "a", nil)
	l.Reset(100)
	if l.Seq() != 100 || l.StartSeq() != 101 {
		t.Fatalf("seq=%d start=%d after Reset(100)", l.Seq(), l.StartSeq())
	}
	if err := l.AppendAt(Op{Seq: 101, Kind: OpSet, Key: "b"}); err != nil {
		t.Fatal(err)
	}
}

func TestOpLogCloseAndCancel(t *testing.T) {
	l := NewOpLog(16)
	s, _ := l.Stream(0)
	done := make(chan error, 1)
	go func() {
		_, err := s.Recv(nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}

	l2 := NewOpLog(16)
	s2, _ := l2.Stream(0)
	go func() {
		_, err := s2.Recv(nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s2.Cancel()
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestOpLogConcurrentAppendStream(t *testing.T) {
	l := NewOpLog(1 << 16)
	const n = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.Append(OpSet, "k", []byte("v"))
		}
	}()
	s, _ := l.Stream(0)
	var seen uint64
	var buf []Op
	for seen < n {
		ops, err := s.Recv(buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			seen++
			if op.Seq != seen {
				t.Fatalf("seq %d out of order (want %d)", op.Seq, seen)
			}
		}
		buf = ops
	}
	wg.Wait()
}

// TestFramesArePinned: the append encoders write, byte for byte, the
// frames the wire has carried since its first version (these bytes are
// what its earlier bufio writers wrote), so a master and a replica of
// different builds still read each other. A snapshot entry's frames are
// the SET and EXPIRE ops' own.
func TestFramesArePinned(t *testing.T) {
	const (
		set    = "6f000007757365723a343205616c696365"
		setEnc = "6f0001046c69737403ff0102"
		expire = "6f000307757365723a34321331373030303030303030313233343536373839"
	)
	at := int64(1700000000123456789)
	for _, c := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"FLUSHALL", AppendOp(nil, Op{Kind: OpFlushAll}), "6f00050000"},
		{"SET", AppendOp(nil, SetOp("user:42", []byte("alice"), false)), set},
		{"SET entry", AppendEntry(nil, []byte("user:42"), []byte("alice"), false, 0), set},
		{"SET-ENCODED", AppendOp(nil, SetOp("list", []byte{0xFF, 1, 2}, true)), setEnc},
		{"SET-ENCODED entry", AppendEntry(nil, []byte("list"), []byte{0xFF, 1, 2}, true, 0), setEnc},
		{"EXPIRE", AppendOp(nil, ExpireOp("user:42", at)), expire},
		{"SET entry with a deadline", AppendEntry(nil, []byte("user:42"), []byte("alice"), false, at), set + expire},
		{"DEL at 2^40", AppendOp(nil, Op{Seq: 1 << 40, Kind: OpDel, Key: "gone"}), "6f8080808080200204676f6e65"},
		{"empty SET at 300", AppendOp(nil, Op{Seq: 300, Kind: OpSet, Key: "k", Val: []byte{}}), "6fac0200016b00"},
		{"ping", AppendPing(nil, 5), "7005"},
		{"ack", AppendAck(nil, 1<<40), "61808080808020"},
		{"snap-end", AppendSnapEnd(nil, 300), "65ac02"},
	} {
		if got := hex.EncodeToString(c.frame); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// An encoder appends: what dst held stays in front.
	if got := AppendPing([]byte("xy"), 5); string(got) != "xy\x70\x05" {
		t.Errorf("AppendPing after \"xy\": %x", got)
	}
}

func TestWireRoundTrip(t *testing.T) {
	ops := []Op{
		{Seq: 1, Kind: OpSet, Key: "k1", Val: []byte("v1")},
		{Seq: 2, Kind: OpDel, Key: "gone"},
		{Seq: 3, Kind: OpSetEncoded, Key: "list", Val: []byte{0xFF, 0x01, 0x02}},
	}
	wire := AppendSnapEnd(nil, 3)
	for _, op := range ops {
		wire = AppendOp(wire, op)
	}
	wire = AppendAck(wire, 3)

	r := bufio.NewReader(bytes.NewReader(wire))
	f, err := ReadFrame(r)
	if err != nil || !f.IsSnapEnd() || f.Seq != 3 {
		t.Fatalf("snap-end = %+v, err %v", f, err)
	}
	for i, want := range ops {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !f.IsOp() {
			t.Fatalf("frame %d not an op: %+v", i, f)
		}
		got := f.Op
		if got.Seq != want.Seq || got.Kind != want.Kind || got.Key != want.Key || !bytes.Equal(got.Val, want.Val) {
			t.Fatalf("op %d = %+v, want %+v", i, got, want)
		}
	}
	f, _ = ReadFrame(r)
	if !f.IsAck() || f.Seq != 3 {
		t.Fatalf("ack = %+v", f)
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("trailing read err = %v, want io.EOF", err)
	}
}

func TestWireTornFrame(t *testing.T) {
	frame := AppendOp(nil, Op{Seq: 1, Kind: OpSet, Key: "key", Val: []byte("value")})
	torn := frame[:len(frame)-3]
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(torn))); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestAckTrackerWait(t *testing.T) {
	a := NewAckTracker()
	if err := a.Wait(5, 0, 0); err != nil {
		t.Fatalf("need=0 should not wait: %v", err)
	}
	if err := a.Wait(5, 1, 20*time.Millisecond); !errors.Is(err, ErrNotEnoughAcks) {
		t.Fatalf("err = %v, want ErrNotEnoughAcks", err)
	}
	a.Ack("r1", 5)
	if err := a.Wait(5, 1, 0); err != nil {
		t.Fatalf("already acked: %v", err)
	}
	if err := a.Wait(5, 2, 20*time.Millisecond); !errors.Is(err, ErrNotEnoughAcks) {
		t.Fatalf("two replicas required, one acked: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- a.Wait(10, 2, 2*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	a.Ack("r1", 10)
	a.Ack("r2", 12)
	if err := <-done; err != nil {
		t.Fatalf("wait should complete on acks: %v", err)
	}

	a.Detach("r1")
	snap := a.Snapshot()
	if _, ok := snap["r1"]; ok {
		t.Fatal("detached replica still in snapshot")
	}
	if snap["r2"] != 12 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestOpLogBytesTracksHeap holds Bytes(), which the overload watermark
// reads, to the heap the retained window really occupies: a full window of
// repl-write sized ops (14 B keys, 128 B values) and one of small ops.
func TestOpLogBytesTracksHeap(t *testing.T) {
	heapAfterGC := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, valLen := range []int{16, 128} {
		val := make([]byte, valLen)
		before := heapAfterGC()
		l := NewOpLog(0)
		// Three windows' worth, so the slice has been trimmed and regrown
		// into its steady state.
		for i := 0; i < 3*DefaultLogCap; i++ {
			l.Append(OpSet, fmt.Sprintf("user:%09d", i), val)
		}
		heap := heapAfterGC() - before
		ratio := float64(l.Bytes()) / float64(heap)
		t.Logf("val %d B: heap %.1f B/op, accounted %.1f B/op, ratio %.2f", valLen,
			float64(heap)/DefaultLogCap, float64(l.Bytes())/DefaultLogCap, ratio)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("val %d B: Bytes() %d vs heap %d: ratio %.2f outside [0.75, 1.25]", valLen, l.Bytes(), heap, ratio)
		}
		runtime.KeepAlive(l)
	}
}
