package faults

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/lsm"
	"tierbase/internal/wal"
)

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-ch
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestConnPassthrough(t *testing.T) {
	a, b := tcpPair(t)
	fc := WrapConn(a, NewInjector())
	if _, err := fc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := b.Read(buf); err != nil || string(buf) != "hello" {
		t.Fatalf("read %q, %v", buf, err)
	}
}

func TestStallBlocksAndHealUnblocks(t *testing.T) {
	a, b := tcpPair(t)
	inj := NewInjector()
	fc := WrapConn(a, inj)
	inj.StallReads(true)
	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := fc.Read(buf)
		got <- err
	}()
	// The read must be parked in the stall gate, not failing.
	deadline := time.Now().Add(2 * time.Second)
	for inj.StalledOps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("read never entered the stall gate")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-got:
		t.Fatalf("stalled read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := b.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	inj.Heal()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("healed read failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after Heal")
	}
}

func TestCloseInterruptsStall(t *testing.T) {
	a, _ := tcpPair(t)
	inj := NewInjector()
	fc := WrapConn(a, inj)
	inj.StallWrites(true)
	got := make(chan error, 1)
	go func() {
		_, err := fc.Write([]byte("x"))
		got <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for inj.StalledOps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write never entered the stall gate")
		}
		time.Sleep(time.Millisecond)
	}
	fc.Close()
	select {
	case err := <-got:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("want net.ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write still blocked after Close")
	}
}

func TestResetAfterBytes(t *testing.T) {
	a, _ := tcpPair(t)
	inj := NewInjector()
	fc := WrapConn(a, inj)
	inj.ResetAfterBytes(4)
	if _, err := fc.Write([]byte("1234")); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	if _, err := fc.Write([]byte("5")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want ErrInjectedReset, got %v", err)
	}
	// The reset closed the conn.
	if _, err := fc.Write([]byte("6")); err == nil {
		t.Fatal("write after reset succeeded")
	}
}

func TestByteRateSlowsWrites(t *testing.T) {
	a, b := tcpPair(t)
	inj := NewInjector()
	fc := WrapConn(a, inj)
	inj.SetByteRate(1 << 20) // 1 MiB/s
	go func() {
		buf := make([]byte, 32<<10)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	payload := make([]byte, 64<<10) // ~62ms at the cap
	if _, err := fc.Write(payload); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("rate cap not applied: 64KiB in %v", el)
	}
}

func TestProxyRelayAndPartition(t *testing.T) {
	// Echo server as the upstream target.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	p, err := NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	echo := func() error {
		if _, err := c.Write([]byte("ping")); err != nil {
			return err
		}
		buf := make([]byte, 4)
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := c.Read(buf)
		if err == nil && !bytes.Equal(buf, []byte("ping")) {
			t.Fatalf("echoed %q", buf)
		}
		return err
	}
	if err := echo(); err != nil {
		t.Fatalf("relay: %v", err)
	}
	p.Injector().Partition()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatalf("client-side write (partition blackholes, not errors): %v", err)
	}
	buf := make([]byte, 4)
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded across a partition")
	}
	p.Injector().Heal()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err != nil || !bytes.Equal(buf, []byte("ping")) {
		t.Fatalf("healed link did not deliver the buffered echo: %q, %v", buf, err)
	}
}

func TestProxyDropConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 64)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(c)
		}
	}()
	p, err := NewProxy("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	p.DropConns()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived DropConns")
	}
}

func TestStorageInjector(t *testing.T) {
	st := WrapStorage(cache.NewMapStorage())
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st.FailReads(true)
	if _, _, err := st.Get("k"); !errors.Is(err, ErrInjectedDisk) {
		t.Fatal("FailReads off on Get")
	}
	if err := st.Put("k2", []byte("w")); err != nil {
		t.Fatalf("FailReads must not fail writes: %v", err)
	}
	st.FailReads(false)
	if v, ok, err := st.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after FailReads off: %q %v %v", v, ok, err)
	}
	st.FailWrites(true)
	if err := st.Put("k", []byte("v2")); !errors.Is(err, ErrInjectedDisk) {
		t.Fatal("FailWrites off on Put")
	}
	if err := st.Delete("k2"); !errors.Is(err, ErrInjectedDisk) {
		t.Fatal("FailWrites off on Delete")
	}
	if err := st.FlushAll(); !errors.Is(err, ErrInjectedDisk) {
		t.Fatal("FailWrites off on FlushAll")
	}
	st.FailWrites(false)
	if err := st.FlushAll(); err != nil {
		t.Fatalf("FlushAll passthrough: %v", err)
	}
	if _, ok, err := st.Get("k"); err != nil || ok {
		t.Fatalf("key survived FlushAll: %v %v", ok, err)
	}
}

// memWAL is a minimal wal.Appender for the WAL injector test.
type memWAL struct {
	appends int
	syncs   int
	seg     int
	removed int
}

func (m *memWAL) Append(p []byte) error      { m.appends++; return nil }
func (m *memWAL) Sync() error                { m.syncs++; return nil }
func (m *memWAL) Close() error               { return nil }
func (m *memWAL) Rotate() (int, error)       { m.seg++; return m.seg, nil }
func (m *memWAL) RemoveBefore(seq int) error { m.removed = seq; return nil }

func TestWALInjector(t *testing.T) {
	inner := &memWAL{}
	w := WrapWAL(inner)
	if err := w.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	w.FailWrites(true)
	if err := w.Append([]byte("rec")); !errors.Is(err, ErrInjectedDisk) {
		t.Fatalf("append: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrInjectedDisk) {
		t.Fatalf("sync: %v", err)
	}
	w.FailWrites(false)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if inner.appends != 1 || inner.syncs != 1 {
		t.Fatalf("inner saw appends=%d syncs=%d", inner.appends, inner.syncs)
	}
}

// TestWrappedWALReclaimsSegments: an LSM whose WAL is wrapped in the fault
// injector rotates and frees its log at every flush, as it does through a
// plain wal.Log. Once everything is flushed the log holds no record.
func TestWrappedWALReclaimsSegments(t *testing.T) {
	dir := t.TempDir()
	db, err := lsm.Open(lsm.Options{
		Dir:           dir,
		MemtableBytes: 4 << 10,
		WALFactory: func(walDir string) (wal.Appender, error) {
			l, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncNever})
			if err != nil {
				return nil, err
			}
			return WrapWAL(l), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("w"), 256)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("seg%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	flushes := db.Stats().Flushes
	// Close waits for the flusher, so the last flush has freed its segments.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var held int64
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		held += fi.Size()
	}
	if flushes < 2 || held != 0 {
		t.Fatalf("after %d flushes the wrapped WAL holds %d bytes in %d segments; want 0", flushes, held, len(segs))
	}
}

// TestWALInjectorGatesRotate: Rotate fails like Append while writes fail,
// and RemoveBefore always reaches the wrapped log.
func TestWALInjectorGatesRotate(t *testing.T) {
	inner := &memWAL{}
	w := WrapWAL(inner)
	w.FailWrites(true)
	if _, err := w.Rotate(); !errors.Is(err, ErrInjectedDisk) {
		t.Fatalf("rotate: %v", err)
	}
	if err := w.RemoveBefore(3); err != nil || inner.removed != 3 {
		t.Fatalf("remove before: %v, inner saw %d", err, inner.removed)
	}
	w.FailWrites(false)
	if seg, err := w.Rotate(); err != nil || seg != 1 {
		t.Fatalf("rotate = %d, %v; want 1", seg, err)
	}
}
