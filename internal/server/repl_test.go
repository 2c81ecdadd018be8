package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/client"
	"tierbase/internal/compress"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/replication"
	"tierbase/internal/resp"
	"tierbase/internal/wal"
	"tierbase/internal/workload"
)

// startMaster starts a replication-enabled master node.
func startMaster(t *testing.T, mod func(*Config)) (*Server, *client.Client) {
	t.Helper()
	cfg := Config{Replication: ReplicationConfig{NodeID: "m1"}}
	if mod != nil {
		mod(&cfg)
	}
	return startTestServer(t, cfg)
}

// startReplicaOf starts a replica following master.
func startReplicaOf(t *testing.T, master *Server, id string, mod func(*Config)) (*Server, *client.Client) {
	t.Helper()
	cfg := Config{Replication: ReplicationConfig{NodeID: id, MasterAddr: master.Addr()}}
	if mod != nil {
		mod(&cfg)
	}
	return startTestServer(t, cfg)
}

// waitFor polls cond until it holds or the deadline fails the test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// infoField reads one field of an INFO section.
func infoField(t *testing.T, c *client.Client, section, field string) string {
	t.Helper()
	fields, err := c.Info(section)
	if err != nil {
		t.Fatal(err)
	}
	return fields[field]
}

func TestReplicationStreamsWrites(t *testing.T) {
	ms, mc := startMaster(t, nil)
	_, rc := startReplicaOf(t, ms, "r1", nil)

	for i := 0; i < 50; i++ {
		if err := mc.Set(fmt.Sprintf("key%02d", i), fmt.Sprintf("v%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mc.Do("INCR", "counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Do("LPUSH", "list", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Del("key00"); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "replica catch-up", func() bool {
		v, err := rc.Get("key49")
		return err == nil && v == "v49"
	})
	waitFor(t, "delete replication", func() bool {
		_, err := rc.Get("key00")
		return err == client.Nil
	})
	if v, err := rc.Get("counter"); err != nil || v != "1" {
		t.Fatalf("counter on replica: %q %v", v, err)
	}
	waitFor(t, "collection replication", func() bool {
		v, err := rc.Do("LLEN", "list")
		return err == nil && v == int64(3)
	})

	if got := infoField(t, mc, "replication", "role"); got != "master" {
		t.Fatalf("master role = %q", got)
	}
	if got := infoField(t, mc, "replication", "connected_replicas"); got != "1" {
		t.Fatalf("connected_replicas = %q", got)
	}
	if got := infoField(t, rc, "replication", "role"); got != "replica" {
		t.Fatalf("replica role = %q", got)
	}
	waitFor(t, "master link up", func() bool {
		return infoField(t, rc, "replication", "master_link") == "up"
	})
}

// TestReplicaInstallsCollectionsWithoutStorageReads: a streamed collection
// op carries the key's whole state, so a replica installs it without
// reading the key from its storage tier first, however cold the key.
func TestReplicaInstallsCollectionsWithoutStorageReads(t *testing.T) {
	ms, mc := startMaster(t, nil)
	remote := cache.NewRemote(cache.NewMapStorage(), 0)
	_, rc := startReplicaOf(t, ms, "r1", func(c *Config) {
		c.TieredFactory = func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{Policy: cache.WriteThrough, Engine: eng, Storage: remote})
		}
	})
	const keys = 50
	for i := 0; i < keys; i++ {
		if _, err := mc.Do("LPUSH", fmt.Sprintf("list%02d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	head := infoField(t, mc, "replication", "repl_seq")
	waitFor(t, "replica catch-up", func() bool {
		return infoField(t, rc, "replication", "last_applied_seq") == head
	})
	if st := remote.Stats(); st.Gets != 0 || st.BatchGets != 0 {
		t.Fatalf("installing %d streamed collections read storage: %d Gets, %d BatchGets", keys, st.Gets, st.BatchGets)
	}
	if st := remote.Stats(); st.Puts != keys {
		t.Fatalf("%d storage Puts for %d collections, want one each", st.Puts, keys)
	}
	for i := 0; i < keys; i++ {
		if n, err := rc.Do("LLEN", fmt.Sprintf("list%02d", i)); err != nil || n != int64(1) {
			t.Fatalf("LLEN list%02d on the replica: %v, %v", i, n, err)
		}
	}
	if got := infoField(t, rc, "replication", "apply_errors"); got != "0" {
		t.Fatalf("apply_errors = %s", got)
	}
}

func TestReplicaRejectsWritesWithTypedMoved(t *testing.T) {
	ms, mc := startMaster(t, nil)
	_, rc := startReplicaOf(t, ms, "r1", nil)

	if err := mc.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica catch-up", func() bool {
		v, err := rc.Get("k")
		return err == nil && v == "v"
	})

	err := rc.Set("k", "nope")
	var mv *client.MovedError
	if !errors.As(err, &mv) {
		t.Fatalf("replica write error not a MovedError: %#v", err)
	}
	if mv.Addr != ms.Addr() {
		t.Fatalf("MOVED points at %q, master is %q", mv.Addr, ms.Addr())
	}
	// Reads still serve.
	if v, err := rc.Get("k"); err != nil || v != "v" {
		t.Fatalf("replica read after rejected write: %q %v", v, err)
	}
	// Master value untouched.
	if v, err := mc.Get("k"); err != nil || v != "v" {
		t.Fatalf("master value: %q %v", v, err)
	}
}

func TestFullSyncBootstrap(t *testing.T) {
	// A tiny log window forces the late-joining replica out of the
	// incremental path: it must bootstrap from an engine snapshot.
	ms, mc := startMaster(t, func(c *Config) { c.Replication.LogCap = 8 })
	for i := 0; i < 100; i++ {
		if err := mc.Set(fmt.Sprintf("key%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mc.Do("LPUSH", "list", "a", "b"); err != nil {
		t.Fatal(err)
	}

	_, rc := startReplicaOf(t, ms, "r1", nil)
	// Snapshot entries apply as they arrive, stripe by stripe, so wait for
	// the last stripe's key, not the first's.
	waitFor(t, "full-sync bootstrap", func() bool {
		v0, err0 := rc.Get("key000")
		v99, err99 := rc.Get("key099")
		return err0 == nil && v0 == "v" && err99 == nil && v99 == "v"
	})
	waitFor(t, "collection snapshot", func() bool {
		v, err := rc.Do("LLEN", "list")
		return err == nil && v == int64(2)
	})
	if got := infoField(t, rc, "replication", "full_syncs_done"); got != "1" {
		t.Fatalf("full_syncs_done = %q", got)
	}
	// And the stream continues past the snapshot.
	if err := mc.Set("after-snap", "x"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-snapshot stream", func() bool {
		v, err := rc.Get("after-snap")
		return err == nil && v == "x"
	})
}

// TestFullSyncKeepsTTL: a key's deadline travels with it in a full sync,
// as the EXPIRE that follows its SET in the snapshot. Without it the key
// lands on the replica with no TTL, and a replica promoted later never
// expires it.
func TestFullSyncKeepsTTL(t *testing.T) {
	ms, mc := startMaster(t, func(c *Config) { c.Replication.LogCap = 8 })
	if err := mc.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Do("LPUSH", "list", "a"); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k", "list"} {
		if _, err := mc.Do("EXPIRE", key, "100"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // push the EXPIREs out of the log window
		if err := mc.Set(fmt.Sprintf("pad%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	_, rc := startReplicaOf(t, ms, "r1", nil)
	waitFor(t, "full-sync bootstrap", func() bool {
		return infoField(t, rc, "replication", "master_link") == "up"
	})
	if got := infoField(t, rc, "replication", "full_syncs_done"); got != "1" {
		t.Fatalf("full_syncs_done = %q", got)
	}
	for _, key := range []string{"k", "list"} {
		ttl, err := rc.Do("TTL", key)
		if n, ok := ttl.(int64); err != nil || !ok || n <= 0 || n > 100 {
			t.Fatalf("TTL %s on the replica = %v, %v; want (0, 100]", key, ttl, err)
		}
	}
}

// TestFullSyncFromCompressedMaster: a full sync carries logical values, so
// a master that keeps its values PBC-compressed bootstraps a replica that
// keeps them raw. The snapshot walk decodes each compressed value into a
// buffer it reuses for the next, under the stripe's read lock; every value
// must still reach the replica byte-equal: 2 000 KV1 records (compressed),
// one under CompressMin (kept raw beside them), a list and a key with a TTL.
func TestFullSyncFromCompressedMaster(t *testing.T) {
	ds := workload.NewKV1()
	pbc := compress.NewPBC()
	if err := pbc.Train(workload.Sample(ds, 500)); err != nil {
		t.Fatal(err)
	}
	ms, mc := startMaster(t, func(c *Config) {
		c.Replication.LogCap = 8
		c.EngineOptions.Compressor = pbc
	})
	want := map[string]string{"short": "tiny"}
	raw := 0
	for i := 0; i < 2000; i++ {
		v := string(ds.Record(int64(i)))
		want[fmt.Sprintf("kv1:%04d", i)] = v
		raw += len(v)
	}
	if err := mc.MSet(want); err != nil {
		t.Fatal(err)
	}
	if stored := ms.eng.Stats().PayloadBytes; stored >= int64(raw) {
		t.Fatalf("%d payload bytes for %d of values: the master did not compress", stored, raw)
	}
	if _, err := mc.Do("LPUSH", "list", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Do("EXPIRE", "kv1:0007", "100"); err != nil {
		t.Fatal(err)
	}

	_, rc := startReplicaOf(t, ms, "r1", nil)
	waitFor(t, "full-sync bootstrap", func() bool {
		return infoField(t, rc, "replication", "master_link") == "up"
	})
	if got := infoField(t, rc, "replication", "full_syncs_done"); got != "1" {
		t.Fatalf("full_syncs_done = %q", got)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for len(keys) > 0 {
		n := min(len(keys), 500)
		got, err := rc.MGet(keys[:n]...)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[:n] {
			if got[k] != want[k] {
				t.Fatalf("%s on the replica = %q, want %q", k, got[k], want[k])
			}
		}
		keys = keys[n:]
	}
	if v, err := rc.Do("LRANGE", "list", "0", "-1"); err != nil || fmt.Sprint(v) != "[b a]" {
		t.Fatalf("LRANGE list on the replica = %v, %v", v, err)
	}
	ttl, err := rc.Do("TTL", "kv1:0007")
	if n, ok := ttl.(int64); err != nil || !ok || n <= 0 || n > 100 {
		t.Fatalf("TTL on the replica = %v, %v; want (0, 100]", ttl, err)
	}
}

func TestSemiSyncAckGate(t *testing.T) {
	ms, mc := startMaster(t, func(c *Config) {
		c.Replication.SemiSyncAcks = 1
		c.Replication.AckTimeout = 200 * time.Millisecond
	})

	// No replica attached: the write applies locally but fails semi-sync.
	err := mc.Set("k", "v")
	if err == nil || !strings.HasPrefix(err.Error(), "NOREPLICAS") {
		t.Fatalf("semi-sync with no replicas = %v, want NOREPLICAS", err)
	}

	_, rc := startReplicaOf(t, ms, "r1", nil)
	waitFor(t, "replica attach", func() bool {
		return mc.Set("k2", "v2") == nil
	})
	// Semi-sync acked means the replica already has it: no polling.
	if err := mc.Set("k3", "v3"); err != nil {
		t.Fatal(err)
	}
	if v, err := rc.Get("k3"); err != nil || v != "v3" {
		t.Fatalf("acked write not on replica: %q %v", v, err)
	}
}

// pipeline writes cmds to a fresh connection in one packet and returns the
// replies in order, and how long the last one took to arrive.
func pipeline(t *testing.T, s *Server, cmds ...[]string) ([]interface{}, time.Duration) {
	t.Helper()
	nc := rawDial(t, s.Addr())
	var out []byte
	for _, cmd := range cmds {
		out = resp.AppendCommand(out, cmd...)
	}
	start := time.Now()
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(start.Add(10 * time.Second))
	rd := resp.NewReader(bufio.NewReader(nc), resp.MaxArgs, resp.MaxBulkLen)
	replies := make([]interface{}, len(cmds))
	for i := range replies {
		var err error
		if replies[i], err = rd.ReadReply(); err != nil {
			t.Fatalf("reply %d of %d: %v", i, len(cmds), err)
		}
	}
	return replies, time.Since(start)
}

// TestSemiSyncHoldsRepliesNotTheConnection: a semi-sync write holds its
// reply, not its connection. Eight pipelined SETs to a master whose one
// replica acknowledges every op a fixed delay after it arrives come back
// together after about one delay: the commands behind a held reply execute
// at once and the window waits a single time. (Held one by one they took
// eight delays.)
func TestSemiSyncHoldsRepliesNotTheConnection(t *testing.T) {
	const delay = 50 * time.Millisecond
	ms, mc := startMaster(t, func(c *Config) {
		c.Replication.SemiSyncAcks = 1
		c.Replication.AckTimeout = 10 * time.Second
		c.Replication.KeepaliveInterval = time.Minute // no ping acks ahead of the ops
	})
	nc, br := attachFakeReplica(t, ms, "late")
	waitFor(t, "replica attached", func() bool {
		return infoField(t, mc, "replication", "connected_replicas") == "1"
	})
	type ack struct {
		seq uint64
		due time.Time
	}
	acks := make(chan ack, 64) // every op this test causes: the reader must never wait on the acker's sleep
	go func() {
		defer close(acks)
		for {
			f, err := replication.ReadFrame(br)
			if err != nil {
				return
			}
			if f.IsOp() {
				acks <- ack{f.Op.Seq, time.Now().Add(delay)}
			}
		}
	}()
	go func() {
		for a := range acks {
			time.Sleep(time.Until(a.due))
			if _, err := nc.Write(replication.AppendAck(nil, a.seq)); err != nil {
				return
			}
		}
	}()

	var cmds [][]string
	for i := 0; i < 8; i++ {
		cmds = append(cmds, []string{"SET", fmt.Sprintf("k%d", i), "v"})
	}
	replies, took := pipeline(t, ms, cmds...)
	for i, r := range replies {
		if r != "OK" {
			t.Fatalf("reply %d = %v, want OK", i, r)
		}
	}
	if took < delay || took > 4*delay {
		t.Fatalf("8 pipelined semi-sync SETs took %v with acks %v late, want about one ack delay", took, delay)
	}
}

// TestSemiSyncTimeoutReplacesOnlyUnackedWrites: with no replica, every
// write of a pipelined window gets its own -NOREPLICAS after one shared
// timeout, and the read between them gets its value: the writes were
// applied, and a timeout does not touch a reply it does not concern.
func TestSemiSyncTimeoutReplacesOnlyUnackedWrites(t *testing.T) {
	const timeout = 150 * time.Millisecond
	ms, _ := startMaster(t, func(c *Config) {
		c.Replication.SemiSyncAcks = 1
		c.Replication.AckTimeout = timeout
	})
	replies, took := pipeline(t, ms,
		[]string{"SET", "a", "1"},
		[]string{"GET", "a"},
		[]string{"SET", "b", "2"},
		[]string{"INCR", "a"},
		[]string{"LPUSH", "a", "x"}, // wrong type: fails on its own, nothing to wait for
		[]string{"GET", "b"},
	)
	for _, i := range []int{0, 2, 3} {
		if e, ok := replies[i].(resp.Error); !ok || !strings.HasPrefix(string(e), "NOREPLICAS") {
			t.Errorf("reply %d = %v, want -NOREPLICAS", i, replies[i])
		}
	}
	if replies[1] != "1" || replies[5] != "2" {
		t.Errorf("GETs between the writes = %v, %v, want 1, 2", replies[1], replies[5])
	}
	if e, ok := replies[4].(resp.Error); !ok || !strings.Contains(string(e), "wrong value type") {
		t.Errorf("LPUSH on a string = %v, want its own wrong-type error", replies[4])
	}
	if took < timeout || took > 3*timeout {
		t.Errorf("window took %v, want one ack timeout of %v", took, timeout)
	}
}

func TestPromotionContinuesSequence(t *testing.T) {
	ms, mc := startMaster(t, nil)
	r1s, r1c := startReplicaOf(t, ms, "r1", nil)
	_, r2c := startReplicaOf(t, ms, "r2", nil)

	for i := 0; i < 20; i++ {
		if err := mc.Set(fmt.Sprintf("pre%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both replicas caught up", func() bool {
		v1, e1 := r1c.Get("pre19")
		v2, e2 := r2c.Get("pre19")
		return e1 == nil && v1 == "v" && e2 == nil && v2 == "v"
	})

	// Kill the master; promote r1; re-point r2 (what the coordinator's
	// failover push does against live processes).
	ms.Close()
	if _, err := r1c.Do("REPLICAOF", "NO", "ONE"); err != nil {
		t.Fatal(err)
	}
	if got := infoField(t, r1c, "replication", "role"); got != "master" {
		t.Fatalf("promoted role = %q", got)
	}
	host, port, ok := strings.Cut(r1s.Addr(), ":")
	if !ok {
		t.Fatal("bad addr")
	}
	if _, err := r2c.Do("REPLICAOF", host, port); err != nil {
		t.Fatal(err)
	}

	// New master accepts writes; r2 resumes incrementally (the mirrored
	// log continues the old master's sequence numbers).
	if err := r1c.Set("post", "promoted"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "r2 follows new master", func() bool {
		v, err := r2c.Get("post")
		return err == nil && v == "promoted"
	})
	// Pre-failover data survives on both.
	for _, c := range []*client.Client{r1c, r2c} {
		if v, err := c.Get("pre00"); err != nil || v != "v" {
			t.Fatalf("pre-failover key lost: %q %v", v, err)
		}
	}
	// r2 did not need a full sync to follow the promoted node.
	if got := infoField(t, r2c, "replication", "full_syncs_done"); got != "0" {
		t.Fatalf("full_syncs_done on r2 = %q, want 0 (incremental continuation)", got)
	}
}

// TestSetIncrOrderingConverges hammers one key with interleaved SET and
// INCR from many goroutines: because SET now takes the RMW stripe lock,
// the op log observes the same per-key order the engine applied, so the
// replica converges to exactly the master's final value.
func TestSetIncrOrderingConverges(t *testing.T) {
	ms, mc := startMaster(t, nil)
	_, rc := startReplicaOf(t, ms, "r1", nil)

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(ms.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					if err := c.Set("hot", fmt.Sprintf("%d", w*1000+i)); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := c.Do("INCR", "hot"); err != nil {
					// INCR on a non-integer SET value is a legal error.
					if !strings.Contains(err.Error(), "integer") {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	final, err := mc.Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica converges to master's final value", func() bool {
		v, err := rc.Get("hot")
		return err == nil && v == final
	})
	// And stays there: no late ops reordering past the end.
	time.Sleep(50 * time.Millisecond)
	if v, err := rc.Get("hot"); err != nil || v != final {
		t.Fatalf("replica diverged after settle: %q vs %q (%v)", v, final, err)
	}
}

// TestInfoAckLagNeverUnderflows: a replica whose ack is ahead of the head
// INFO read (a write appended and acknowledged between the two reads)
// reports ack_lag=0, not the head minus the ack wrapped around 2^64.
func TestInfoAckLagNeverUnderflows(t *testing.T) {
	master, mc := startMaster(t, nil)
	if err := mc.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	master.repl.acks.Ack("ahead", master.repl.log.Seq()+3)
	if got := infoField(t, mc, "replication", "replica0"); !strings.HasSuffix(got, ",ack_lag=0") {
		t.Fatalf("replica0:%s, want ack_lag=0", got)
	}
}

// TestMuteCoordinatorBoundsCloseAndShutdown: a coordinator that accepts
// connections and never answers holds a REGISTER, HEARTBEAT or DEREGISTER
// for at most four heartbeat intervals, so Close and Shutdown still
// return.
func TestMuteCoordinatorBoundsCloseAndShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	})
	accepted := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(conns)
	}
	for _, stop := range []struct {
		name string
		fn   func(*Server) error
	}{{"Close", (*Server).Close}, {"Shutdown", (*Server).Shutdown}} {
		t.Run(stop.name, func(t *testing.T) {
			before := accepted()
			s, err := Start(Config{Addr: "127.0.0.1:0", Replication: ReplicationConfig{
				NodeID: "n1", CoordinatorAddr: ln.Addr().String(), HeartbeatInterval: 20 * time.Millisecond,
			}})
			if err != nil {
				t.Fatal(err)
			}
			for accepted() == before { // the heartbeat loop has dialed
				time.Sleep(time.Millisecond)
			}
			done := make(chan error, 1)
			go func() { done <- stop.fn(s) }()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s hung behind a coordinator that never answers", stop.name)
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Replication: ReplicationConfig{MasterAddr: "127.0.0.1:1"}},
		{Replication: ReplicationConfig{CoordinatorAddr: "127.0.0.1:1"}},
		{Replication: ReplicationConfig{SemiSyncAcks: 1}},
		{Replication: ReplicationConfig{NodeID: "n", MasterAddr: "127.0.0.1:1", SemiSyncAcks: 1}},
		{Shards: 2},
		{Shards: -1},
	}
	for i, cfg := range bad {
		cfg.normalize()
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
	good := Config{Replication: ReplicationConfig{NodeID: "n", SemiSyncAcks: 1}}
	good.normalize()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Replication.AckTimeout != 2*time.Second {
		t.Fatalf("AckTimeout default = %v", good.Replication.AckTimeout)
	}
}

// TestPipelinedMSetsKeepTheirValues: MSET hands BatchPut its values where
// the parser left them, so the second of two MSETs sent in one packet
// overwrites the first one's values in the parse buffer. Every tier that
// keeps a value must have copied it by then: the first batch reads back
// whole from the cache and the storage tier of a write-through and a
// write-back node, and from both nodes of a semi-sync pair.
func TestPipelinedMSetsKeepTheirValues(t *testing.T) {
	batch := func(tag string) ([]string, map[string]string) {
		cmd, kv := []string{"MSET"}, map[string]string{}
		for i := 0; i < 64; i++ {
			k, v := fmt.Sprintf("%s:%02d", tag, i), fmt.Sprintf("%s-value-%02d", tag, i)
			cmd, kv[k] = append(cmd, k, v), v
		}
		return cmd, kv
	}
	first, want := batch("a")
	second, _ := batch("b")
	send := func(t *testing.T, s *Server) {
		replies, _ := pipeline(t, s, first, second)
		for i, r := range replies {
			if r != "OK" {
				t.Fatalf("MSET %d: %v", i+1, r)
			}
		}
	}
	check := func(t *testing.T, where string, get func(k string) (string, error)) {
		for k, v := range want {
			if got, err := get(k); err != nil || got != v {
				t.Fatalf("%s: %s = %q, %v; want %q", where, k, got, err, v)
			}
		}
	}
	for _, policy := range []cache.Policy{cache.WriteThrough, cache.WriteBack} {
		t.Run(policy.String(), func(t *testing.T) {
			db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), WALSyncPolicy: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			stor := cache.NewLSMStorage(db)
			var tr *cache.Tiered
			s, c := startTestServer(t, Config{TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
				tr, err = cache.New(cache.Options{Policy: policy, Engine: eng, Storage: stor, FlushInterval: time.Hour})
				return tr, err
			}})
			send(t, s)
			check(t, "cache", c.Get)
			if err := tr.FlushDirty(); err != nil {
				t.Fatal(err)
			}
			check(t, "storage", func(k string) (string, error) {
				v, ok, err := stor.Get(k)
				if err == nil && !ok {
					err = cache.ErrNotFound
				}
				return string(v), err
			})
		})
	}
	t.Run("semi-sync", func(t *testing.T) {
		ms, mc := startMaster(t, func(c *Config) { c.Replication.SemiSyncAcks = 1 })
		_, rc := startReplicaOf(t, ms, "r1", nil)
		waitFor(t, "replica attached", func() bool {
			return infoField(t, mc, "replication", "connected_replicas") == "1"
		})
		send(t, ms)
		check(t, "master", mc.Get)
		head := infoField(t, mc, "replication", "repl_seq")
		waitFor(t, "replica catch-up", func() bool {
			return infoField(t, rc, "replication", "last_applied_seq") == head
		})
		check(t, "replica", rc.Get)
	})
}
