package server

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tierbase/internal/elastic"
)

// Networked end-to-end benchmarks over a raw TCP connection. The client
// side is deliberately allocation-free — requests are pre-encoded byte
// slices, replies are read with io.ReadFull into a reused buffer — so
// with the server in-process, the harness's allocs/op is (to within
// noise) the SERVER's per-command allocation count. This is the gauge for
// the zero-allocation hot path: GET should hold at ~2 allocs/op (the key
// string and the engine's private value copy).

// benchConn dials the server and returns the raw connection.
func benchConn(b *testing.B, s *Server) net.Conn {
	b.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { nc.Close() })
	return nc
}

// encodeCmd pre-encodes one RESP command.
func encodeCmd(args ...string) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&sb, "$%d\r\n%s\r\n", len(a), a)
	}
	return []byte(sb.String())
}

// roundTrip writes a pre-encoded request and reads exactly replyLen bytes
// back into buf.
func roundTrip(b *testing.B, nc net.Conn, req, buf []byte, replyLen int) {
	if _, err := nc.Write(req); err != nil {
		b.Fatal(err)
	}
	if _, err := io.ReadFull(nc, buf[:replyLen]); err != nil {
		b.Fatal(err)
	}
}

func startBenchServer(b *testing.B) *Server {
	b.Helper()
	s, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func BenchmarkNetGET(b *testing.B) {
	s := startBenchServer(b)
	nc := benchConn(b, s)
	val := strings.Repeat("x", 16)
	setReq := encodeCmd("SET", "bench:key", val)
	buf := make([]byte, 1024)
	roundTrip(b, nc, setReq, buf, len("+OK\r\n"))
	getReq := encodeCmd("GET", "bench:key")
	replyLen := len(fmt.Sprintf("$%d\r\n%s\r\n", len(val), val))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, nc, getReq, buf, replyLen)
	}
}

// BenchmarkNetGETParallel is GET from eight connections at once through the
// node's one gate: the case elastic threading exists for. "single" pins
// the gate to one slot, so each command waits for the others';
// "elastic" lets the controller boost.
func BenchmarkNetGETParallel(b *testing.B) {
	const conns = 8
	for _, tc := range []struct {
		name  string
		fixed int
	}{{"single", 1}, {"elastic", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := Start(Config{Addr: "127.0.0.1:0", Pool: elastic.PoolOptions{Fixed: tc.fixed}})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			val := strings.Repeat("x", 16)
			buf := make([]byte, 64)
			ncs := make([]net.Conn, conns)
			for i := range ncs {
				ncs[i] = benchConn(b, s)
				roundTrip(b, ncs[i], encodeCmd("SET", fmt.Sprintf("bench:key%d", i), val), buf, len("+OK\r\n"))
			}
			replyLen := len(fmt.Sprintf("$%d\r\n%s\r\n", len(val), val))
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for i, nc := range ncs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req, buf := encodeCmd("GET", fmt.Sprintf("bench:key%d", i)), make([]byte, 64)
					for next.Add(1) <= int64(b.N) {
						if _, err := nc.Write(req); err != nil {
							b.Error(err)
							return
						}
						if _, err := io.ReadFull(nc, buf[:replyLen]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func BenchmarkNetSET(b *testing.B) {
	s := startBenchServer(b)
	nc := benchConn(b, s)
	req := encodeCmd("SET", "bench:key", strings.Repeat("x", 16))
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, nc, req, buf, len("+OK\r\n"))
	}
}

func BenchmarkNetMGET8(b *testing.B) {
	s := startBenchServer(b)
	nc := benchConn(b, s)
	val := strings.Repeat("x", 16)
	args := []string{"MGET"}
	elem := fmt.Sprintf("$%d\r\n%s\r\n", len(val), val)
	replyLen := len("*8\r\n")
	buf := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("bench:k%d", i)
		roundTrip(b, nc, encodeCmd("SET", k, val), buf, len("+OK\r\n"))
		args = append(args, k)
		replyLen += len(elem)
	}
	req := encodeCmd(args...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, nc, req, buf, replyLen)
	}
}

// BenchmarkNetGETPipelined measures the hot path with 64 commands per
// socket write: the per-syscall cost amortizes away, leaving parse,
// dispatch, execute, and encode.
func BenchmarkNetGETPipelined(b *testing.B) {
	const window = 64
	s := startBenchServer(b)
	nc := benchConn(b, s)
	val := strings.Repeat("x", 16)
	buf := make([]byte, 64<<10)
	roundTrip(b, nc, encodeCmd("SET", "bench:key", val), buf, len("+OK\r\n"))
	one := encodeCmd("GET", "bench:key")
	var req []byte
	for i := 0; i < window; i++ {
		req = append(req, one...)
	}
	replyLen := window * len(fmt.Sprintf("$%d\r\n%s\r\n", len(val), val))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		roundTrip(b, nc, req, buf, replyLen)
	}
}
