package client_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/client"
	"tierbase/internal/server"
)

// --- injected-RTT proxy --------------------------------------------------

// rttProxy relays bytes between client and server, sleeping delay before
// forwarding each read chunk (so a full round trip costs ~2*delay). The
// delay is per CHUNK, not per command: a pipelined burst of N commands
// crosses in one chunk and pays the RTT once, while a caller that waits
// for each reply pays it per command. Unlike cache.Remote's spin-wait
// RTT, this sleeps for real, so it does not burn a small box's CPU.
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

// One sequential caller, no injected RTT: the client's own cost per round
// trip over loopback.
func BenchmarkGetSequential(b *testing.B) {
	benchGetSequential(b, 0)
}

// One sequential caller at ~1ms injected RTT: every op pays one RTT.
func BenchmarkGetSequentialRTT1ms(b *testing.B) {
	benchGetSequential(b, 500*time.Microsecond)
}

// 64 goroutines sharing ONE connection at ~1ms injected RTT: the round
// trips take turns on the connection, so each op still pays one RTT and
// the 64 callers queue behind it. A caller with this shape batches with
// MGet or Pipeline, or dials more connections.
func BenchmarkGet64GoroutinesRTT1ms(b *testing.B) {
	c := dialBench(b, 500*time.Microsecond)
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
}

func benchGetSequential(b *testing.B, delay time.Duration) {
	c := dialBench(b, delay)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(benchKey(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// dialBench dials a seeded server, through an RTT proxy when delay > 0.
func dialBench(b *testing.B, delay time.Duration) *client.Client {
	addr := startBenchServer(b).Addr()
	if delay > 0 {
		addr = startRTTProxy(b, addr, delay)
	}
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}
