package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tierbase/internal/client"
)

// rawDial opens a plain TCP connection to the server — the overload
// drills need protocol-level control (half-written commands, unread
// replies) the client deliberately hides.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// pingRaw sends one PING and returns the server's first reply line.
func pingRaw(t *testing.T, nc net.Conn) string {
	t.Helper()
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatalf("ping write: %v", err)
	}
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil {
		t.Fatalf("ping read: %v", err)
	}
	nc.SetDeadline(time.Time{})
	return strings.TrimRight(line, "\r\n")
}

// TestMaxConnAdmission: with MaxConns set, the N+1th connection is
// refused with a typed -MAXCONN before any command runs, and a slot
// freed by a disconnect is immediately reusable.
func TestMaxConnAdmission(t *testing.T) {
	s, c := startTestServer(t, Config{Overload: OverloadConfig{MaxConns: 2}})
	if err := c.Ping(); err != nil { // the client holds slot 1
		t.Fatal(err)
	}

	second := rawDial(t, s.Addr())
	if got := pingRaw(t, second); got != "+PONG" {
		t.Fatalf("second conn reply = %q, want +PONG", got)
	}

	third := rawDial(t, s.Addr())
	third.SetDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(third).ReadString('\n')
	if err != nil {
		t.Fatalf("third conn read: %v", err)
	}
	if !strings.HasPrefix(line, "-MAXCONN") {
		t.Fatalf("third conn reply = %q, want -MAXCONN rejection", line)
	}
	if n := s.over.maxConnRejects.Load(); n < 1 {
		t.Fatalf("maxconn_rejects = %d, want >= 1", n)
	}

	// A dropped connection must free its admission slot.
	second.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", s.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(time.Second))
		nc.Write([]byte("*1\r\n$4\r\nPING\r\n"))
		line, err := bufio.NewReader(nc).ReadString('\n')
		nc.Close()
		if err == nil && strings.HasPrefix(line, "+PONG") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not reusable after disconnect (last reply %q, err %v)", line, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

}

// TestSlowReaderShedAtOutputCap: a client that pipelines GETs for a fat
// value without draining replies is cut off once its pending output
// passes the cap — and the buffer the server retained for it stays
// bounded by cap + one reply, so a stuck consumer cannot pin master
// memory.
func TestSlowReaderShedAtOutputCap(t *testing.T) {
	const outCap = 8 << 10
	const blobSize = 4 << 10
	s, c := startTestServer(t, Config{Overload: OverloadConfig{MaxOutputBytes: outCap}})
	if err := c.Set("blob", strings.Repeat("b", blobSize)); err != nil {
		t.Fatal(err)
	}

	nc := rawDial(t, s.Addr())
	// One burst of pipelined GETs: the server dispatches them back to
	// back without flushing (more input is buffered), so replies pile up
	// in c.out until the cap sheds the connection.
	req := "*2\r\n$3\r\nGET\r\n$4\r\nblob\r\n"
	if _, err := nc.Write([]byte(strings.Repeat(req, 10))); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(nc); err != nil {
		// ReadAll returning an error other than timeout is fine too — a
		// RST instead of FIN still proves the shed. A timeout means the
		// server kept the connection.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("slow reader still connected after exceeding the output cap")
		}
	}
	if n := s.over.shedConns.Load(); n < 1 {
		t.Fatalf("shed_conns = %d, want >= 1", n)
	}
	if peak := s.over.slowestOut.Load(); peak > outCap+blobSize+1024 {
		t.Fatalf("retained output peaked at %d bytes, want <= cap+reply (%d)", peak, outCap+blobSize+1024)
	}

	// The healthy client is unaffected.
	if v, err := c.Get("blob"); err != nil || len(v) != blobSize {
		t.Fatalf("healthy client after shed: len=%d err=%v", len(v), err)
	}
	if !strings.Contains(s.info("overload"), "shed_conns:") {
		t.Fatal("INFO overload must report shed_conns")
	}
}

// TestWriteFloodWatermark: past the high watermark writes fail fast with
// the typed, retryable -OVERLOADED while reads keep serving; once memory
// drains to the low watermark, writes resume on their own.
func TestWriteFloodWatermark(t *testing.T) {
	s, c := startTestServer(t, Config{Overload: OverloadConfig{
		HighWatermarkBytes: 64 << 10,
		LowWatermarkBytes:  16 << 10,
		CheckInterval:      time.Hour, // the test drives sampling itself
	}})

	val := strings.Repeat("w", 1024)
	var keys []string
	for i := 0; s.memUsage() < 64<<10; i++ {
		k := fmt.Sprintf("flood:%04d", i)
		if err := c.Set(k, val); err != nil {
			t.Fatalf("flood set %d: %v", i, err)
		}
		keys = append(keys, k)
		if i > 1000 {
			t.Fatal("memUsage never reached the high watermark")
		}
	}
	s.sampleWatermark()
	if !s.rejectWrites() {
		t.Fatalf("usage %d >= high watermark but gate is open", s.memUsage())
	}

	// Writes shed with the typed error; reads serve.
	err := c.Set("rejected", "x")
	var ov *client.OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("write above watermark: got %v, want OverloadedError", err)
	}
	if v, err := c.Get(keys[0]); err != nil || v != val {
		t.Fatalf("read above watermark must serve: %q %v", v, err)
	}
	if got := s.info("overload"); !strings.Contains(got, "overloaded:1") {
		t.Fatalf("INFO overload should report overloaded:1:\n%s", got)
	}
	if n := s.over.rejectedWrites.Load(); n < 1 {
		t.Fatalf("rejected_writes = %d, want >= 1", n)
	}
	if n := s.over.watermarkTrips.Load(); n != 1 {
		t.Fatalf("watermark_trips = %d, want 1", n)
	}

	// Hysteresis: a sample between the two watermarks leaves the gate
	// closed; only draining to the low watermark reopens writes.
	half := keys[:len(keys)/2]
	s.eng.Del(half...)
	if s.memUsage() < 16<<10 {
		t.Skip("drain overshot the low watermark; hysteresis band too narrow on this layout")
	}
	s.sampleWatermark()
	if !s.rejectWrites() {
		t.Fatal("gate must stay closed between watermarks (hysteresis)")
	}
	s.eng.Del(keys...)
	s.sampleWatermark()
	if s.rejectWrites() {
		t.Fatalf("usage %d <= low watermark but gate still closed", s.memUsage())
	}
	if err := c.Set("recovered", "ok"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestIdleReadTimeoutCloses: with ReadTimeout set, an idle connection is
// closed at the deadline and counted, while an active one stays up.
func TestIdleReadTimeoutCloses(t *testing.T) {
	s, _ := startTestServer(t, Config{Overload: OverloadConfig{ReadTimeout: 100 * time.Millisecond}})

	idle := rawDial(t, s.Addr())
	if got := pingRaw(t, idle); got != "+PONG" {
		t.Fatalf("ping = %q", got)
	}
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(idle).ReadString('\n'); err == nil {
		t.Fatal("idle connection was not closed at the read deadline")
	}
	if n := s.over.idleCloses.Load(); n < 1 {
		t.Fatalf("idle_closes = %d, want >= 1", n)
	}
}

// TestShutdownDrainsConnections: Shutdown finishes in-flight work, kicks
// idle connections out of their blocking reads, and returns well inside
// the drain budget.
func TestShutdownDrainsConnections(t *testing.T) {
	s, c := startTestServer(t, Config{Overload: OverloadConfig{DrainTimeout: 5 * time.Second}})
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	idle := rawDial(t, s.Addr())
	if got := pingRaw(t, idle); got != "+PONG" {
		t.Fatalf("ping = %q", got)
	}

	start := time.Now()
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("shutdown took %s, want a prompt drain", took)
	}
	// The idle connection was closed, not abandoned.
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := bufio.NewReader(idle).ReadString('\n'); err == nil {
		t.Fatal("idle connection still open after Shutdown")
	}
	// And the listener is gone.
	if _, err := net.DialTimeout("tcp", s.Addr(), 500*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}
