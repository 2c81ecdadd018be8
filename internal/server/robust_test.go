package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/client"
	"tierbase/internal/engine"
	"tierbase/internal/faults"
	"tierbase/internal/replication"
	"tierbase/internal/resp"
)

// TestSlowReplicaFullSyncDoesNotStallWrites is the in-process slow-link
// drill: a fake replica requests a full sync and then never reads its
// socket. With small kernel buffers the master's snapshot writes block;
// WriteTimeout must kill that session within a bound while concurrent
// client writes keep completing at normal latency.
func TestSlowReplicaFullSyncDoesNotStallWrites(t *testing.T) {
	ms, mc := startMaster(t, func(c *Config) {
		c.Replication.WriteTimeout = 250 * time.Millisecond
		c.Replication.KeepaliveInterval = 50 * time.Millisecond
		c.Replication.LogCap = 8 // force SYNC 0 onto the full-sync path
		c.WrapConn = func(nc net.Conn) net.Conn {
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.SetWriteBuffer(4 << 10) // make the stall reproducible
			}
			return nc
		}
	})

	// Enough snapshot bytes to overflow the shrunken socket buffers many
	// times over: about 19 KiB in each of the 16 stripes, a hold and a
	// flush each.
	payload := strings.Repeat("x", 1024)
	for i := 0; i < 300; i++ {
		if err := mc.Set(fmt.Sprintf("snap%03d", i), payload); err != nil {
			t.Fatal(err)
		}
	}

	// The stuck replica: handshake, then stop draining the socket.
	stuck, err := net.Dial("tcp", ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	if tc, ok := stuck.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	if _, err := stuck.Write(resp.AppendCommand(nil, "SYNC", "0", "stuck")); err != nil {
		t.Fatal(err)
	}

	// While the master is wedged mid-snapshot against the dead socket,
	// client writes must complete promptly (the paper's "bounded
	// master-side write stall" requirement).
	var maxLat time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		if err := mc.Set(fmt.Sprintf("live%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if lat := time.Since(start); lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat > 2*time.Second {
		t.Fatalf("client write stalled %v behind a stuck full sync", maxLat)
	}

	// The master must abandon the stuck session within ~WriteTimeout: the
	// socket gets closed, which we observe as EOF once we drain it.
	stuck.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64<<10)
	for {
		if _, err := stuck.Read(buf); err != nil {
			break // EOF/reset: the master gave up on us — the point
		}
	}

	if got := infoField(t, mc, "replication", "full_syncs_served"); got != "1" {
		t.Fatalf("full_syncs_served = %q", got)
	}
	waitFor(t, "stuck session detached", func() bool {
		return infoField(t, mc, "replication", "connected_replicas") == "0"
	})
	stall, err := strconv.ParseInt(infoField(t, mc, "replication", "max_write_stall_ns"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if stall < int64(100*time.Millisecond) {
		t.Fatalf("max_write_stall_ns=%d: the blocked flush never registered", stall)
	}
	if stall > int64(10*time.Second) {
		t.Fatalf("max_write_stall_ns=%d: write stall unbounded", stall)
	}
}

// attachFakeReplica connects to ms as replica id: SYNC 0, read whatever
// snapshot the master sends, attach with an ack at 0. What the test then
// does with the op stream on br, and which acks it writes to nc, is its
// own business. The connection closes with the test.
func attachFakeReplica(t *testing.T, ms *Server, id string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc := rawDial(t, ms.Addr())
	br := bufio.NewReader(nc)
	if _, err := nc.Write(resp.AppendCommand(nil, "SYNC", "0", id)); err != nil {
		t.Fatal(err)
	}
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimRight(status, "\r\n"); s == "+FULLSYNC" {
		for {
			f, err := replication.ReadFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if f.IsSnapEnd() {
				break
			}
		}
	} else if s != "+CONTINUE" {
		t.Fatalf("handshake status %q", s)
	}
	if _, err := nc.Write(replication.AppendAck(nil, 0)); err != nil {
		t.Fatal(err)
	}
	return nc, br
}

// TestLaggardReplicaIsShed: a replica that attaches, then reads ops but
// never acks them, must be disconnected once its unacked backlog passes
// ShedBacklog — it cannot pin master-side resources forever.
func TestLaggardReplicaIsShed(t *testing.T) {
	ms, mc := startMaster(t, func(c *Config) {
		c.Replication.KeepaliveInterval = 30 * time.Millisecond
		c.Replication.ShedBacklog = 32
	})

	nc, br := attachFakeReplica(t, ms, "laggard")
	waitFor(t, "laggard attached", func() bool {
		return infoField(t, mc, "replication", "connected_replicas") == "1"
	})

	// Push the backlog past the bound.
	for i := 0; i < 100; i++ {
		if err := mc.Set(fmt.Sprintf("k%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Keep reading (we are slow to ACK, not slow to read) until the
	// master sheds us.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		if _, err := replication.ReadFrame(br); err != nil {
			break
		}
	}

	waitFor(t, "laggard shed", func() bool {
		return infoField(t, mc, "replication", "laggards_shed") == "1" &&
			infoField(t, mc, "replication", "connected_replicas") == "0"
	})
}

// TestKeepaliveKeepsIdleLinkAlive: with aggressive read deadlines, an
// idle master→replica link must survive on pings alone — no spurious
// reconnects, no full syncs.
func TestKeepaliveKeepsIdleLinkAlive(t *testing.T) {
	ms, mc := startMaster(t, func(c *Config) {
		c.Replication.KeepaliveInterval = 30 * time.Millisecond
		c.Replication.ReadTimeout = 120 * time.Millisecond
	})
	_, rc := startReplicaOf(t, ms, "r1", func(c *Config) {
		c.Replication.KeepaliveInterval = 30 * time.Millisecond
		c.Replication.ReadTimeout = 120 * time.Millisecond
	})

	if err := mc.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica catch-up", func() bool {
		v, err := rc.Get("k")
		return err == nil && v == "v"
	})
	// Idle for many ReadTimeout periods: only pings flow.
	time.Sleep(600 * time.Millisecond)
	if got := infoField(t, rc, "replication", "master_link"); got != "up" {
		t.Fatalf("idle link dropped: master_link=%q", got)
	}
	if got := infoField(t, rc, "replication", "full_syncs_done"); got != "0" {
		t.Fatalf("idle link re-synced: full_syncs_done=%q", got)
	}
	// And it still carries writes.
	if err := mc.Set("k2", "v2"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-idle stream", func() bool {
		v, err := rc.Get("k2")
		return err == nil && v == "v2"
	})
}

// TestExpirePersistFlushAllReplicate: the PR's new op kinds reach the
// replica — TTLs (as absolute deadlines), TTL clears, and whole-keyspace
// flushes.
func TestExpirePersistFlushAllReplicate(t *testing.T) {
	ms, mc := startMaster(t, nil)
	_, rc := startReplicaOf(t, ms, "r1", nil)

	if err := mc.Set("ttl", "v"); err != nil {
		t.Fatal(err)
	}
	if err := mc.Set("keep", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Do("EXPIRE", "ttl", "100"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Do("EXPIRE", "keep", "100"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Do("PERSIST", "keep"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "TTL replicated", func() bool {
		v, err := rc.Do("TTL", "ttl")
		if err != nil {
			return false
		}
		n, ok := v.(int64)
		return ok && n > 90 && n <= 100
	})
	waitFor(t, "PERSIST replicated", func() bool {
		v, err := rc.Do("TTL", "keep")
		return err == nil && v == int64(-1)
	})

	if _, err := mc.Do("FLUSHALL"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "FLUSHALL replicated", func() bool {
		v, err := rc.Do("DBSIZE")
		return err == nil && v == int64(0)
	})
	// The stream continues past the flush.
	if err := mc.Set("after", "x"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-flush stream", func() bool {
		v, err := rc.Get("after")
		return err == nil && v == "x"
	})
}

// TestFullSyncClearsReplicaStorage: a replica bootstrapping by snapshot
// must clear its private storage tier too — a key the master deleted
// while the replica was away must not resurrect from the replica's
// storage on a later cold read.
func TestFullSyncClearsReplicaStorage(t *testing.T) {
	ms, mc := startMaster(t, func(c *Config) { c.Replication.LogCap = 8 })
	for i := 0; i < 100; i++ {
		if err := mc.Set(fmt.Sprintf("key%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	stale := cache.NewMapStorage()
	stale.Put("ghost", []byte("stale-value")) // what an old life left behind
	_, rc := startReplicaOf(t, ms, "r1", func(c *Config) {
		c.TieredFactory = func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteThrough, Engine: eng, Storage: stale})
		}
	})

	waitFor(t, "full-sync bootstrap", func() bool {
		v, err := rc.Get("key099")
		return err == nil && v == "v"
	})
	if got := infoField(t, rc, "replication", "full_syncs_done"); got != "1" {
		t.Fatalf("full_syncs_done = %q", got)
	}
	// The ghost is gone from every tier: a cold read can't resurrect it.
	if _, err := rc.Get("ghost"); err != client.Nil {
		t.Fatalf("ghost key resurrected from replica storage: %v", err)
	}
	if _, ok, _ := stale.Get("ghost"); ok {
		t.Fatal("replica private storage kept the ghost key")
	}
}

// TestTornFullSyncStartsOver: a replica whose snapshot is cut off has
// already cleared its keyspace for it, so it must not resume
// incrementally from the position it held before the snapshot, even once
// its master's head passes that position. The replica here is ahead of
// its new master (as after a failover that promoted the replica that was
// behind), the first snapshot is reset partway through, and the master
// writes past the replica's old position before the replica redials.
func TestTornFullSyncStartsOver(t *testing.T) {
	old, oc := startMaster(t, nil)
	inj := faults.NewInjector()
	nm, nmc := startMaster(t, func(c *Config) {
		c.Replication.NodeID = "m2"
		c.WrapConn = func(nc net.Conn) net.Conn { return faults.WrapConn(nc, inj) }
	})
	redialing := make(chan struct{})
	resume := make(chan struct{})
	var release sync.Once
	dials := 0
	_, rc := startReplicaOf(t, old, "r1", func(c *Config) {
		c.Replication.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			if addr == nm.Addr() {
				if dials++; dials == 2 { // the redial after the torn snapshot
					close(redialing)
					<-resume
				}
			}
			return net.DialTimeout("tcp", addr, timeout)
		}
	})
	t.Cleanup(func() { release.Do(func() { close(resume) }) })

	const p = 30 // the replica's position on the old master
	for i := 0; i < p; i++ {
		if err := oc.Set(fmt.Sprintf("old%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replica at the old master's head", func() bool {
		return infoField(t, rc, "replication", "last_applied_seq") == strconv.Itoa(p)
	})
	// 240 KiB of snapshot in fewer writes than p, spread over the stripes
	// the keys hash to: a hold and a flush or more each, so the reset lands
	// between flushes, with the replica's keyspace cleared and part of the
	// snapshot applied.
	payload := strings.Repeat("x", 24<<10)
	for i := 0; i < 10; i++ {
		if err := nmc.Set(fmt.Sprintf("snap%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}

	inj.ResetAfterBytes(120 << 10) // about half of the snapshot
	host, port, _ := net.SplitHostPort(nm.Addr())
	if _, err := rc.Do("REPLICAOF", host, port); err != nil {
		t.Fatal(err)
	}
	select {
	case <-redialing:
	case <-time.After(10 * time.Second):
		t.Fatal("the replica never redialed after the torn snapshot")
	}
	for i := 0; i <= p-10; i++ { // the new master's head passes p
		if _, err := nmc.Do("INCR", "counter"); err != nil {
			t.Fatal(err)
		}
	}
	release.Do(func() { close(resume) })

	// A snapshot ends at the master's head, written out before the redial.
	head := infoField(t, nmc, "replication", "repl_seq")
	waitFor(t, "replica through a whole snapshot", func() bool {
		return infoField(t, rc, "replication", "last_applied_seq") == head
	})
	if v, err := rc.Get("counter"); err != nil || v != strconv.Itoa(p-9) {
		t.Fatalf("counter after the torn full sync: %q, %v", v, err)
	}
	if got := infoField(t, rc, "replication", "full_syncs_done"); got != "2" {
		t.Fatalf("the replica began %s full syncs, want the torn one and the whole one", got)
	}
	for i := 0; i < 10; i++ {
		if v, err := rc.Get(fmt.Sprintf("snap%d", i)); err != nil || v != payload {
			t.Fatalf("snap%d after the torn full sync: %d bytes, %v", i, len(v), err)
		}
	}
}
