package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"tierbase/internal/pmem"
)

func openTestLog(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncAlways})
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if err := Replay(dir, func(p []byte) error {
		cp := append([]byte(nil), p...)
		got = append(got, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReplayEmptyDir(t *testing.T) {
	if err := Replay(t.TempDir(), func([]byte) error { t.Fatal("no records expected"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := Replay(filepath.Join(t.TempDir(), "missing"), func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncAlways, MaxSegmentBytes: 256})
	for i := 0; i < 50; i++ {
		if err := l.Append(bytes.Repeat([]byte("x"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	var count int
	if err := Replay(dir, func(p []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("replayed %d records across segments, want 50", count)
	}
}

func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncAlways})
	l.Append([]byte("first"))
	l.Close()
	l2 := openTestLog(t, Options{Dir: dir, Policy: SyncAlways})
	l2.Append([]byte("second"))
	l2.Close()
	var got []string
	Replay(dir, func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v", got)
	}
}

func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncAlways})
	l.Append([]byte("intact"))
	l.Close()
	// Simulate a torn write: append garbage half-record to the segment.
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segName(dir, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{10, 0, 0, 0, 1, 2}) // header claims 10 bytes; truncated
	f.Close()
	var got []string
	if err := Replay(dir, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "intact" {
		t.Fatalf("got %v", got)
	}
}

func TestCorruptTailChecksumIgnored(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncAlways})
	l.Append([]byte("good"))
	l.Close()
	segs, _ := listSegments(dir)
	f, _ := os.OpenFile(segName(dir, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	// Full-length record with a bad CRC.
	f.Write([]byte{3, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'b', 'a', 'd'})
	f.Close()
	var got []string
	if err := Replay(dir, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestRotateRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncAlways})
	l.Append([]byte("gen0-a"))
	l.Append([]byte("gen0-b"))
	seg1, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("gen1-a"))
	seg2, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seg2 <= seg1 {
		t.Fatalf("rotation did not advance: %d -> %d", seg1, seg2)
	}
	l.Append([]byte("gen2-a"))

	// Reclaim gen0 (checkpointed): records from seg1 on must survive.
	if err := l.RemoveBefore(seg1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var got []string
	if err := Replay(dir, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []string{"gen1-a", "gen2-a"}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
}

func TestRemoveBeforeNeverDropsActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncAlways})
	l.Append([]byte("live"))
	// A bound past the active segment must not delete it.
	if err := l.RemoveBefore(1 << 30); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("more"))
	l.Close()
	var got []string
	Replay(dir, func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 2 {
		t.Fatalf("active segment lost: %v", got)
	}
}

func TestAppendAfterClose(t *testing.T) {
	l := openTestLog(t, Options{Policy: SyncAlways})
	l.Close()
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncInterval, SyncEvery: 20 * time.Millisecond})
	for i := 0; i < 10; i++ {
		l.Append([]byte("interval"))
	}
	time.Sleep(80 * time.Millisecond)
	if l.Syncs() == 0 {
		t.Fatal("interval sync never fired")
	}
	l.Close()
	var count int
	Replay(dir, func([]byte) error { count++; return nil })
	if count != 10 {
		t.Fatalf("replayed %d", count)
	}
}

func TestSyncNeverStillReplaysAfterClose(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncNever})
	l.Append([]byte("lazy"))
	l.Close() // close flushes
	var count int
	Replay(dir, func([]byte) error { count++; return nil })
	if count != 1 {
		t.Fatalf("replayed %d", count)
	}
}

func TestAppendsCounter(t *testing.T) {
	l := openTestLog(t, Options{Policy: SyncNever})
	defer l.Close()
	for i := 0; i < 7; i++ {
		l.Append([]byte("n"))
	}
	if l.Appends() != 7 {
		t.Fatalf("appends = %d", l.Appends())
	}
}

func TestReplayPropertyRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		dir, err := os.MkdirTemp("", "walprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		l, err := Open(Options{Dir: dir, Policy: SyncNever, MaxSegmentBytes: 512})
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if len(p) > 300 {
				p = p[:300]
			}
			if err := l.Append(p); err != nil {
				return false
			}
		}
		l.Close()
		i := 0
		err = Replay(dir, func(p []byte) error {
			want := payloads[i]
			if len(want) > 300 {
				want = want[:300]
			}
			if !bytes.Equal(p, want) {
				return fmt.Errorf("mismatch at %d", i)
			}
			i++
			return nil
		})
		return err == nil && i == len(payloads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- PMemLog ---

func newTestPMemLog(t *testing.T, backDir string) (*PMemLog, *pmem.Device) {
	t.Helper()
	dev := pmem.OpenVolatile(64<<10, pmem.Latency{})
	ring, err := pmem.NewRing(dev)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Open(Options{Dir: backDir, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return NewPMemLog(ring, back), dev
}

func TestPMemLogAppendDrain(t *testing.T) {
	dir := t.TempDir()
	l, _ := newTestPMemLog(t, dir)
	for i := 0; i < 100; i++ {
		if err := l.Append([]byte(fmt.Sprintf("p-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	Replay(dir, func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 100 {
		t.Fatalf("backing log has %d records, want 100", len(got))
	}
	if got[0] != "p-0" || got[99] != "p-99" {
		t.Fatalf("order broken: first=%s last=%s", got[0], got[99])
	}
}

func TestPMemLogBackpressure(t *testing.T) {
	// Tiny ring forces synchronous drains under load.
	dev := pmem.OpenVolatile(512, pmem.Latency{})
	ring, err := pmem.NewRing(dev)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	back, err := Open(Options{Dir: dir, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l := NewPMemLog(ring, back)
	for i := 0; i < 200; i++ {
		if err := l.Append(bytes.Repeat([]byte("z"), 64)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var count int
	Replay(dir, func([]byte) error { count++; return nil })
	if count != 200 {
		t.Fatalf("drained %d records, want 200", count)
	}
}

func TestPMemLogRotateRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l, _ := newTestPMemLog(t, dir)
	for i := 0; i < 50; i++ {
		if err := l.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seg <= 0 {
		t.Fatalf("rotate returned segment %d, want > 0", seg)
	}
	for i := 0; i < 50; i++ {
		if err := l.Append([]byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.RemoveBefore(seg); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every pre-rotation record was drained into segments < seg, so
	// after RemoveBefore only post-rotation records survive replay.
	var got []string
	if err := Replay(dir, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("replayed %d records, want 50", len(got))
	}
	for i, p := range got {
		if want := fmt.Sprintf("new-%d", i); p != want {
			t.Fatalf("record %d = %q, want %q", i, p, want)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s < seg {
			t.Fatalf("segment %d survived RemoveBefore(%d)", s, seg)
		}
	}
}
