package e2e

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/client"
	"tierbase/internal/engine"
	"tierbase/internal/faults"
	"tierbase/internal/server"
)

// dumpInfoOnFailure registers a cleanup that prints the node's INFO
// replication and INFO health sections if the drill fails — the first
// thing anyone needs to diagnose a chaos failure.
func dumpInfoOnFailure(t *testing.T, name string, c *client.Client) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, section := range []string{"replication", "health"} {
			v, err := c.Do("INFO", section)
			if err != nil {
				t.Logf("--- %s INFO %s unavailable: %v", name, section, err)
				continue
			}
			t.Logf("--- %s INFO %s ---\n%s", name, section, v)
		}
	})
}

// seed writes n keys of roughly valBytes each through c in batches.
func seed(t *testing.T, c *client.Client, prefix string, n, valBytes int) {
	t.Helper()
	val := strings.Repeat("x", valBytes)
	batch := make(map[string]string, 50)
	for i := 0; i < n; i++ {
		batch[fmt.Sprintf("%s%05d", prefix, i)] = val
		if len(batch) == 50 || i == n-1 {
			if err := c.MSet(batch); err != nil {
				t.Fatal(err)
			}
			batch = make(map[string]string, 50)
		}
	}
}

// TestChaosSlowLinkFullSync slows the master→replica link to a trickle
// while the replica bootstraps by full sync. The master must keep
// serving writes at normal latency (bounded buffering + write deadlines,
// never an unbounded stall) and the replica must still converge.
func TestChaosSlowLinkFullSync(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildBinaries(t)
	masterAddr := freeAddr(t)
	replicaAddr := freeAddr(t)

	startProc(t, "master", filepath.Join(bin, "tierbase-server"),
		"-addr", masterAddr, "-node-id", "m1",
		"-repl-log-cap", "8", // force the late replica onto the full-sync path
		"-repl-write-timeout", "2s", "-repl-keepalive", "100ms")
	mc := dialWait(t, masterAddr)
	dumpInfoOnFailure(t, "master", mc)

	// ~1 MiB of snapshot state: several seconds of transfer at the
	// throttled rate below.
	seed(t, mc, "snap:", 1000, 1024)

	proxy, err := faults.NewProxy("127.0.0.1:0", masterAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// Throttle BEFORE the replica dials: the whole full sync runs over a
	// ~10x-slowed link.
	proxy.Injector().SetByteRate(300 << 10)

	startProc(t, "replica", filepath.Join(bin, "tierbase-server"),
		"-addr", replicaAddr, "-node-id", "r1", "-replicaof", proxy.Addr(),
		"-repl-write-timeout", "2s", "-repl-keepalive", "100ms")
	rc := dialWait(t, replicaAddr)
	dumpInfoOnFailure(t, "replica", rc)

	// While the slow full sync is in flight, master-side writes must not
	// inherit the link's latency.
	var maxLat time.Duration
	for i := 0; i < 100; i++ {
		start := time.Now()
		if err := mc.Set(fmt.Sprintf("live:%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if lat := time.Since(start); lat > maxLat {
			maxLat = lat
		}
	}
	t.Logf("max master write latency during slow full sync: %v", maxLat)
	if maxLat > 2*time.Second {
		t.Fatalf("master write stalled %v behind a slow replica link", maxLat)
	}

	// The replica still converges — slow, not dead.
	waitFor(t, 60*time.Second, "slow full sync completes", func() bool {
		v, err := rc.Get("snap:00999")
		return err == nil && v != ""
	})
	waitFor(t, 30*time.Second, "post-sync stream over slow link", func() bool {
		v, err := rc.Get("live:099")
		return err == nil && v == "v"
	})
	if got := infoField(rc, "replication", "full_syncs_done"); got == "0" || got == "" {
		t.Fatalf("full_syncs_done = %q, want >= 1", got)
	}
}

// TestChaosPartitionZeroAckedLoss partitions the replica link under
// semi-sync live traffic. During the partition writes must fail fast
// with NOREPLICAS (bounded, not hung); after healing, every write the
// master ever acknowledged must be readable on the replica.
func TestChaosPartitionZeroAckedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildBinaries(t)
	masterAddr := freeAddr(t)
	replicaAddr := freeAddr(t)

	startProc(t, "master", filepath.Join(bin, "tierbase-server"),
		"-addr", masterAddr, "-node-id", "m1",
		"-semisync-acks", "1", "-ack-timeout", "500ms",
		"-repl-write-timeout", "500ms", "-repl-keepalive", "100ms", "-repl-read-timeout", "400ms")
	mc := dialWait(t, masterAddr)
	dumpInfoOnFailure(t, "master", mc)

	proxy, err := faults.NewProxy("127.0.0.1:0", masterAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	startProc(t, "replica", filepath.Join(bin, "tierbase-server"),
		"-addr", replicaAddr, "-node-id", "r1", "-replicaof", proxy.Addr(),
		"-repl-write-timeout", "500ms", "-repl-keepalive", "100ms", "-repl-read-timeout", "400ms")
	rc := dialWait(t, replicaAddr)
	dumpInfoOnFailure(t, "replica", rc)
	waitFor(t, 10*time.Second, "replica link up", func() bool {
		return infoField(rc, "replication", "master_link") == "up"
	})

	// Live writer tracking acked writes. Semi-sync=1: a nil error means
	// the replica applied the write before the client saw OK.
	var (
		mu      sync.Mutex
		acked   = make(map[string]string)
		stop    = make(chan struct{})
		stalled time.Duration
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("chaos:%06d", i)
			start := time.Now()
			err := mc.Set(key, fmt.Sprintf("v%d", i))
			if lat := time.Since(start); lat > stalled {
				mu.Lock()
				stalled = lat
				mu.Unlock()
			}
			if err != nil {
				continue // NOREPLICAS during the partition: not acked
			}
			mu.Lock()
			acked[key] = fmt.Sprintf("v%d", i)
			mu.Unlock()
		}
	}()
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}

	waitFor(t, 20*time.Second, "pre-partition acked writes", func() bool { return ackedCount() >= 100 })

	proxy.Injector().Partition()
	// During the partition the writer keeps running: acks cannot arrive,
	// so Sets fail with NOREPLICAS within the ack timeout — bounded, not
	// hung. Let it churn for a while.
	time.Sleep(1500 * time.Millisecond)
	preHeal := ackedCount()

	proxy.Injector().Heal()
	proxy.DropConns() // flush any zombie relays; the replica redials

	waitFor(t, 30*time.Second, "acked writes resume after heal", func() bool {
		return ackedCount() >= preHeal+100
	})
	close(stop)
	wg.Wait()
	mu.Lock()
	maxStall := stalled
	mu.Unlock()
	t.Logf("%d acked writes total, max write stall %v", ackedCount(), maxStall.Round(time.Millisecond))
	// Bounded master-side stall: ack timeout + write timeout + slop.
	if maxStall > 10*time.Second {
		t.Fatalf("write stalled %v across the partition", maxStall)
	}

	// Zero acked-write loss: every acknowledged key is on the replica.
	mu.Lock()
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	mu.Unlock()
	waitFor(t, 30*time.Second, "replica fully caught up", func() bool {
		last := keys[0]
		for _, k := range keys {
			if k > last {
				last = k
			}
		}
		v, err := rc.Get(last)
		return err == nil && v == acked[last]
	})
	const chunk = 500
	for lo := 0; lo < len(keys); lo += chunk {
		hi := lo + chunk
		if hi > len(keys) {
			hi = len(keys)
		}
		got, err := rc.MGet(keys[lo:hi]...)
		if err != nil {
			t.Fatalf("verify MGet: %v", err)
		}
		for _, k := range keys[lo:hi] {
			if got[k] != acked[k] {
				t.Fatalf("acked write lost across partition: %s = %q, want %q", k, got[k], acked[k])
			}
		}
	}
	t.Logf("verified %d acked writes intact across the partition", len(keys))
}

// TestChaosSIGSTOPReplicaShed freezes the replica process mid-stream.
// The master must shed the frozen laggard (bounded backlog, no pinned
// buffers) and keep serving; after SIGCONT the replica re-syncs and
// converges.
func TestChaosSIGSTOPReplicaShed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildBinaries(t)
	masterAddr := freeAddr(t)
	replicaAddr := freeAddr(t)

	startProc(t, "master", filepath.Join(bin, "tierbase-server"),
		"-addr", masterAddr, "-node-id", "m1",
		"-shed-backlog", "64", "-repl-keepalive", "100ms",
		"-repl-write-timeout", "1s", "-repl-read-timeout", "500ms")
	mc := dialWait(t, masterAddr)
	dumpInfoOnFailure(t, "master", mc)

	replica := startProc(t, "replica", filepath.Join(bin, "tierbase-server"),
		"-addr", replicaAddr, "-node-id", "r1", "-replicaof", masterAddr,
		"-repl-keepalive", "100ms")
	rc := dialWait(t, replicaAddr)
	dumpInfoOnFailure(t, "replica", rc)

	if err := mc.Set("warm", "v"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica caught up", func() bool {
		v, err := rc.Get("warm")
		return err == nil && v == "v"
	})

	// Freeze the replica: it stops reading AND stops acking, exactly like
	// a GC-stalled or swapping node.
	if err := replica.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	unfrozen := false
	defer func() {
		if !unfrozen {
			replica.cmd.Process.Signal(syscall.SIGCONT)
		}
	}()

	// Push the backlog far past the shed bound; master writes must stay
	// fast while the frozen replica's session is dropped.
	var maxLat time.Duration
	for i := 0; i < 300; i++ {
		start := time.Now()
		if err := mc.Set(fmt.Sprintf("frozen:%04d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if lat := time.Since(start); lat > maxLat {
			maxLat = lat
		}
	}
	t.Logf("max master write latency with frozen replica: %v", maxLat)
	if maxLat > 2*time.Second {
		t.Fatalf("master write stalled %v behind a frozen replica", maxLat)
	}
	waitFor(t, 20*time.Second, "frozen laggard shed", func() bool {
		shed, _ := strconv.Atoi(infoField(mc, "replication", "laggards_shed"))
		return shed >= 1 && infoField(mc, "replication", "connected_replicas") == "0"
	})

	// Thaw: the replica must re-sync (incrementally or by snapshot) and
	// converge.
	if err := replica.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	unfrozen = true
	if err := mc.Set("after-thaw", "x"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "thawed replica reconverges", func() bool {
		v1, e1 := rc.Get("frozen:0299")
		v2, e2 := rc.Get("after-thaw")
		return e1 == nil && v1 == "v" && e2 == nil && v2 == "x"
	})
}

// TestChaosDiskErrors runs a tiered in-process server against a storage
// tier scripted to fail: the store must degrade to cache-only serving
// (bounded-latency reads, no stalls), surface the state through INFO
// health, and heal when the disk recovers.
func TestChaosDiskErrors(t *testing.T) {
	disk := faults.WrapStorage(cache.NewMapStorage())
	// Pre-seed storage: these keys exist only in the storage tier, so
	// reading them requires a disk round trip.
	disk.Inner.Put("cold1", []byte("v1"))
	disk.Inner.Put("cold2", []byte("v2"))

	srv, err := server.Start(server.Config{
		Addr: "127.0.0.1:0",
		TieredFactory: func(eng *engine.Engine) (*cache.Tiered, error) {
			return cache.New(cache.Options{
				Policy:                cache.WriteThrough,
				Engine:                eng,
				Storage:               disk,
				StorageRetries:        1,
				StorageRetryBackoff:   time.Millisecond,
				DegradeAfter:          2,
				DegradedProbeInterval: 50 * time.Millisecond,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dumpInfoOnFailure(t, "server", c)

	// Healthy: cold reads come from storage, writes go through.
	if v, err := c.Get("cold1"); err != nil || v != "v1" {
		t.Fatalf("healthy cold read: %q %v", v, err)
	}
	if err := c.Set("hot", "cached"); err != nil {
		t.Fatal(err)
	}

	// The disk starts erroring.
	disk.FailReads(true)
	disk.FailWrites(true)

	// Cold reads fail until the store trips degraded; then they serve
	// cache-only (absent) with bounded latency instead of stalling.
	waitFor(t, 10*time.Second, "store degrades", func() bool {
		c.Get("cold2")
		return infoField(c, "health", "degraded_shards") != "0" &&
			infoField(c, "health", "degraded_shards") != ""
	})
	start := time.Now()
	if _, err := c.Get("cold2"); err != client.Nil {
		// One probe per interval may reach the disk and fail; both shapes
		// are bounded, neither may hang.
		if err == nil {
			t.Fatal("degraded read returned a value from a failing disk")
		}
	}
	if lat := time.Since(start); lat > time.Second {
		t.Fatalf("degraded read took %v", lat)
	}
	// The cache tier still serves.
	if v, err := c.Get("hot"); err != nil || v != "cached" {
		t.Fatalf("degraded hot read: %q %v", v, err)
	}
	// Write-through writes fail fast — no lying about durability.
	if err := c.Set("lost", "x"); err == nil {
		t.Fatal("write-through Set succeeded on a dead disk")
	}
	if ef := infoField(c, "health", "storage_errors"); ef == "" || ef == "0" {
		t.Fatalf("storage_errors = %q", ef)
	}

	// Disk recovers: the probe heals the store and cold reads return.
	disk.FailReads(false)
	disk.FailWrites(false)
	waitFor(t, 10*time.Second, "store heals", func() bool {
		v, err := c.Get("cold2")
		return err == nil && v == "v2" &&
			infoField(c, "health", "degraded_shards") == "0"
	})
	if err := c.Set("recovered", "y"); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
}
