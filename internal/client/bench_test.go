package client_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/client"
	"tierbase/internal/server"
)

// --- serialized baseline -------------------------------------------------
//
// serializedClient replicates the pre-mux client verbatim: one mutex, one
// connection, write+flush+read held across the round trip. It is kept as
// a permanent in-repo baseline so the mux benchmarks compare against the
// old access path on every run instead of requiring a git-stash dance.

type serializedClient struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialSerialized(addr string) (*serializedClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &serializedClient{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 16<<10),
		w:    bufio.NewWriterSize(conn, 16<<10),
	}, nil
}

func (c *serializedClient) close() error { return c.conn.Close() }

func (c *serializedClient) do(args ...string) (interface{}, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintf(c.w, "*%d\r\n", len(args)); err != nil {
		return nil, err
	}
	for _, a := range args {
		if _, err := fmt.Fprintf(c.w, "$%d\r\n%s\r\n", len(a), a); err != nil {
			return nil, err
		}
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.readReply()
}

var errSerializedNil = errors.New("serialized: nil reply")

func (c *serializedClient) readReply() (interface{}, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 3 {
		return nil, errors.New("serialized: malformed reply")
	}
	body := string(line[1 : len(line)-2])
	switch line[0] {
	case '+':
		return body, nil
	case '-':
		return nil, errors.New(body)
	case ':':
		return strconv.ParseInt(body, 10, 64)
	case '$':
		n, err := strconv.Atoi(body)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, errSerializedNil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return nil, err
		}
		return string(buf[:n]), nil
	case '*':
		n, err := strconv.Atoi(body)
		if err != nil {
			return nil, err
		}
		out := make([]interface{}, 0, n)
		for i := 0; i < n; i++ {
			v, err := c.readReply()
			if err != nil && err != errSerializedNil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("serialized: unknown reply type %q", line[0])
	}
}

func (c *serializedClient) get(key string) (string, error) {
	v, err := c.do("GET", key)
	if err != nil {
		return "", err
	}
	s, _ := v.(string)
	return s, nil
}

// --- injected-RTT proxy --------------------------------------------------

// rttProxy relays bytes between client and server, sleeping delay before
// forwarding each read chunk (so a full round trip costs ~2*delay). The
// delay is per CHUNK, not per command: a pipelined burst of N commands
// crosses in one chunk and pays the RTT once, while a serialized caller
// pays it per command — exactly the network effect the mux amortizes.
// Unlike cache.Remote's spin-wait RTT, this sleeps for real, so it does
// not burn the 1-core box's CPU (the spin-RTT caveat).
func startRTTProxy(tb testing.TB, backend string, delay time.Duration) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var conns sync.Map
	go func() {
		for {
			cl, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.DialTimeout("tcp", backend, 5*time.Second)
			if err != nil {
				cl.Close()
				continue
			}
			conns.Store(cl, struct{}{})
			conns.Store(srv, struct{}{})
			relay := func(dst, src net.Conn) {
				defer dst.Close()
				buf := make([]byte, 64<<10)
				for {
					n, err := src.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						if _, werr := dst.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}
			go relay(srv, cl)
			go relay(cl, srv)
		}
	}()
	tb.Cleanup(func() {
		ln.Close()
		conns.Range(func(k, _ interface{}) bool {
			k.(net.Conn).Close()
			return true
		})
	})
	return ln.Addr().String()
}

// --- harness -------------------------------------------------------------

const benchKeys = 512

func benchKey(i int) string { return fmt.Sprintf("bench%04d", i%benchKeys) }

func startBenchServer(b *testing.B) *server.Server {
	b.Helper()
	s, err := server.Start(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	c, err := client.Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	pairs := make(map[string]string, benchKeys)
	for i := 0; i < benchKeys; i++ {
		pairs[benchKey(i)] = fmt.Sprintf("value-%04d", i)
	}
	if err := c.MSet(pairs); err != nil {
		b.Fatal(err)
	}
	return s
}

// runConcurrent spreads b.N ops over the given number of goroutines via a
// shared atomic cursor (deterministic goroutine count, unlike
// RunParallel's GOMAXPROCS scaling).
func runConcurrent(b *testing.B, goroutines int, op func(i int) error) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= b.N {
					return
				}
				if err := op(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		b.Fatal(err)
	}
}

// --- benchmarks ----------------------------------------------------------

// The headline pair: 64 goroutines sharing ONE connection at an injected
// ~1ms RTT. The serialized client pays one RTT per op; the mux shares
// each RTT across the whole drain window.

func BenchmarkMuxGet64GoroutinesRTT1ms(b *testing.B) {
	s := startBenchServer(b)
	proxyAddr := startRTTProxy(b, s.Addr(), 500*time.Microsecond)
	c, err := client.Dial(proxyAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	runConcurrent(b, 64, func(i int) error {
		v, err := c.Get(benchKey(i))
		if err != nil {
			return err
		}
		if v == "" {
			return errors.New("empty value")
		}
		return nil
	})
	b.StopTimer()
	st := c.Stats()
	if st.Flushes > 0 {
		b.ReportMetric(float64(st.Requests)/float64(st.Flushes), "reqs/flush")
	}
}

func BenchmarkSerializedGet64GoroutinesRTT1ms(b *testing.B) {
	s := startBenchServer(b)
	proxyAddr := startRTTProxy(b, s.Addr(), 500*time.Microsecond)
	c, err := dialSerialized(proxyAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.close()
	b.ResetTimer()
	runConcurrent(b, 64, func(i int) error {
		v, err := c.get(benchKey(i))
		if err != nil {
			return err
		}
		if v == "" {
			return errors.New("empty value")
		}
		return nil
	})
}

// The parity pair: a single sequential caller, no injected RTT — the mux
// adds two goroutine handoffs per op and must stay close to the
// serialized fast path.

func BenchmarkMuxGetSequential(b *testing.B) {
	s := startBenchServer(b)
	c, err := client.Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(benchKey(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializedGetSequential(b *testing.B) {
	s := startBenchServer(b)
	c, err := dialSerialized(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.get(benchKey(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// The same parity pair at the injected RTT: with a real network in the
// way both clients pay one RTT per sequential op and the mux's scheduling
// overhead vanishes into it.

func BenchmarkMuxGetSequentialRTT1ms(b *testing.B) {
	s := startBenchServer(b)
	proxyAddr := startRTTProxy(b, s.Addr(), 500*time.Microsecond)
	c, err := client.Dial(proxyAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(benchKey(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializedGetSequentialRTT1ms(b *testing.B) {
	s := startBenchServer(b)
	proxyAddr := startRTTProxy(b, s.Addr(), 500*time.Microsecond)
	c, err := dialSerialized(proxyAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.get(benchKey(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Coalescing shape at zero RTT: how many wire commands and flushes b.N
// concurrent gets collapse into (window size is emergent: whatever piles
// up while the previous flush is on the wire).

func BenchmarkMuxGet64GoroutinesCoalesce(b *testing.B) {
	s := startBenchServer(b)
	c, err := client.Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	runConcurrent(b, 64, func(i int) error {
		_, err := c.Get(benchKey(i))
		return err
	})
	b.StopTimer()
	st := c.Stats()
	if b.N > 0 {
		b.ReportMetric(float64(st.WireCommands)/float64(b.N), "wirecmds/op")
		b.ReportMetric(float64(st.Flushes)/float64(b.N), "flushes/op")
		b.ReportMetric(float64(st.CoalescedGets)/float64(b.N), "coalesced/op")
	}
}

// Write-side coalescing: 64 concurrent setters collapsing into MSETs.
func BenchmarkMuxSet64GoroutinesCoalesce(b *testing.B) {
	s := startBenchServer(b)
	c, err := client.Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	runConcurrent(b, 64, func(i int) error {
		return c.Set(benchKey(i), "value-rewrite")
	})
	b.StopTimer()
	st := c.Stats()
	if b.N > 0 {
		b.ReportMetric(float64(st.WireCommands)/float64(b.N), "wirecmds/op")
		b.ReportMetric(float64(st.CoalescedSets)/float64(b.N), "coalesced/op")
	}
}
