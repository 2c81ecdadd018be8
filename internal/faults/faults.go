// Package faults is a deterministic fault-injection seam for chaos
// drills: a net.Conn wrapper, WrapConn (injected latency, throughput caps,
// byte-level stalls, one-sided partitions, scripted resets), which a
// server applies to every accepted connection through
// server.Config.WrapConn; a TCP proxy, Proxy, for links between processes;
// and error-and-latency injectors for the disk seams (cache.Storage,
// wal.Appender).
//
// Faults are scripted, never random: every control is an explicit
// toggle or countdown the test flips, so a drill that fails replays the
// same way under -race and GOMAXPROCS=1. Controls take effect on the
// next I/O call; a stall also interrupts calls already blocked in it
// when cleared (or when the connection closes).
package faults

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset is returned by a Conn whose scripted reset fired.
var ErrInjectedReset = errors.New("faults: injected connection reset")

// Injector is the shared control surface for one fault domain (one
// link, one server's connections, one proxy). All methods are safe for
// concurrent use; zero value = no faults.
type Injector struct {
	mu   sync.Mutex
	cond *sync.Cond

	latency    time.Duration // added to every Read and Write
	byteRate   int64         // bytes/sec cap per direction (0 = unlimited)
	stallReads bool          // inbound bytes blackholed (block, don't error)
	stallWrite bool          // outbound bytes blackholed
	resetIn    int64         // bytes written until scripted reset; <0 = off

	stalledOps int64 // ops currently blocked in a stall (observability)
}

// NewInjector returns a no-fault injector.
func NewInjector() *Injector {
	i := &Injector{resetIn: -1}
	i.cond = sync.NewCond(&i.mu)
	return i
}

func (i *Injector) init() {
	if i.cond == nil {
		i.cond = sync.NewCond(&i.mu)
		i.resetIn = -1
	}
}

// SetLatency injects d of extra latency on every Read and Write.
func (i *Injector) SetLatency(d time.Duration) {
	i.mu.Lock()
	i.init()
	i.latency = d
	i.mu.Unlock()
}

// SetByteRate caps throughput to bps bytes/sec in each direction
// (0 removes the cap) — the "10x-slowed link" knob.
func (i *Injector) SetByteRate(bps int64) {
	i.mu.Lock()
	i.init()
	i.byteRate = bps
	i.mu.Unlock()
}

// StallReads blackholes inbound bytes while on: Reads block (as a
// partition looks to the reader — no bytes, no error) until cleared or
// the connection closes. One-sided partitions compose from StallReads/
// StallWrites.
func (i *Injector) StallReads(on bool) {
	i.mu.Lock()
	i.init()
	i.stallReads = on
	i.cond.Broadcast()
	i.mu.Unlock()
}

// StallWrites blackholes outbound bytes while on.
func (i *Injector) StallWrites(on bool) {
	i.mu.Lock()
	i.init()
	i.stallWrite = on
	i.cond.Broadcast()
	i.mu.Unlock()
}

// Partition blackholes both directions (a full network partition).
func (i *Injector) Partition() {
	i.mu.Lock()
	i.init()
	i.stallReads, i.stallWrite = true, true
	i.cond.Broadcast()
	i.mu.Unlock()
}

// Heal clears stalls, latency, rate caps, and any pending reset.
func (i *Injector) Heal() {
	i.mu.Lock()
	i.init()
	i.latency, i.byteRate = 0, 0
	i.stallReads, i.stallWrite = false, false
	i.resetIn = -1
	i.cond.Broadcast()
	i.mu.Unlock()
}

// ResetAfterBytes scripts a connection reset: after n more written
// bytes, Writes on wrapped conns fail with ErrInjectedReset and the
// underlying conn closes. n==0 resets on the next write.
func (i *Injector) ResetAfterBytes(n int64) {
	i.mu.Lock()
	i.init()
	i.resetIn = n
	i.mu.Unlock()
}

// StalledOps reports how many I/O calls are currently blocked in a
// stall (drill assertions: "the link really is blackholed").
func (i *Injector) StalledOps() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stalledOps
}

// stallGate blocks while the direction is stalled; returns false when
// the conn closed while waiting.
func (i *Injector) stallGate(write bool, closed *closeFlag) bool {
	i.mu.Lock()
	i.init()
	for (write && i.stallWrite) || (!write && i.stallReads) {
		if closed.isClosed() {
			i.mu.Unlock()
			return false
		}
		i.stalledOps++
		i.cond.Wait()
		i.stalledOps--
	}
	i.mu.Unlock()
	return !closed.isClosed()
}

// params snapshots latency and rate under the lock.
func (i *Injector) params() (time.Duration, int64) {
	i.mu.Lock()
	i.init()
	l, r := i.latency, i.byteRate
	i.mu.Unlock()
	return l, r
}

// consumeReset decrements the scripted-reset countdown by n written
// bytes and reports whether the reset fires on this write.
func (i *Injector) consumeReset(n int64) bool {
	i.mu.Lock()
	i.init()
	if i.resetIn < 0 {
		i.mu.Unlock()
		return false
	}
	i.resetIn -= n
	fire := i.resetIn < 0
	if fire {
		i.resetIn = -1
	}
	i.mu.Unlock()
	return fire
}

// wake unblocks stalled ops so a closing conn can observe its flag.
func (i *Injector) wake() {
	i.mu.Lock()
	i.init()
	i.cond.Broadcast()
	i.mu.Unlock()
}

// closeFlag is shared between a Conn and the stall gate so Close
// interrupts a blocked stall.
type closeFlag struct {
	mu     sync.Mutex
	closed bool
}

func (f *closeFlag) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func (f *closeFlag) set() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

// Conn applies an Injector's faults to one net.Conn. Both directions
// share the injector's controls; deadlines, addresses and everything
// else delegate to the wrapped conn.
type Conn struct {
	net.Conn
	inj *Injector
	cf  closeFlag
}

// WrapConn applies i's faults to nc.
func WrapConn(nc net.Conn, i *Injector) *Conn {
	return &Conn{Conn: nc, inj: i}
}

// throttle sleeps out the injected latency plus the rate-cap cost of n
// bytes.
func throttle(latency time.Duration, rate int64, n int) {
	d := latency
	if rate > 0 && n > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / rate)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Read implements net.Conn with the injector's read-side faults.
func (c *Conn) Read(p []byte) (int, error) {
	if !c.inj.stallGate(false, &c.cf) {
		return 0, net.ErrClosed
	}
	latency, rate := c.inj.params()
	n, err := c.Conn.Read(p)
	throttle(latency, rate, n)
	return n, err
}

// Write implements net.Conn with the injector's write-side faults.
func (c *Conn) Write(p []byte) (int, error) {
	if !c.inj.stallGate(true, &c.cf) {
		return 0, net.ErrClosed
	}
	if c.inj.consumeReset(int64(len(p))) {
		c.Close()
		return 0, ErrInjectedReset
	}
	latency, rate := c.inj.params()
	n, err := c.Conn.Write(p)
	throttle(latency, rate, n)
	return n, err
}

// Close closes the wrapped conn and interrupts any stalled I/O on it.
func (c *Conn) Close() error {
	c.cf.set()
	err := c.Conn.Close()
	c.inj.wake()
	return err
}
