package e2e

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tierbase/internal/client"
)

// term sends SIGTERM and reaps the process, returning its exit error
// (nil for a clean exit) — the graceful counterpart of kill.
func (p *proc) term(t *testing.T) error {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal %s: %v", p.name, err)
	}
	return p.cmd.Wait()
}

// TestGracefulDrain is the live SIGTERM drill: coordinator + semi-sync
// master + replica with routed writers in flight, then SIGTERM on the
// master. A clean drain must (1) deregister from the coordinator —
// observed as an immediate handoff promotion, not a heartbeat-timeout
// failover — (2) exit zero after finishing in-flight work, (3) lose no
// acknowledged write, and (4) keep the client error window bounded
// while the routed client re-routes to the promoted replica.
func TestGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildBinaries(t)
	coordAddr := freeAddr(t)
	masterAddr := freeAddr(t)
	replicaAddr := freeAddr(t)

	coord := startProc(t, "coordinator", filepath.Join(bin, "tierbase-coordinator"),
		"-addr", coordAddr, "-heartbeat-timeout", "750ms", "-check-interval", "150ms")
	master := startProc(t, "master", filepath.Join(bin, "tierbase-server"),
		"-addr", masterAddr, "-node-id", "m1", "-coordinator", coordAddr,
		"-heartbeat-interval", "100ms", "-semisync-acks", "1", "-ack-timeout", "1s",
		"-drain-timeout", "5s")
	startProc(t, "replica", filepath.Join(bin, "tierbase-server"),
		"-addr", replicaAddr, "-node-id", "r1", "-replicaof", masterAddr,
		"-coordinator", coordAddr, "-heartbeat-interval", "100ms")

	replicaC := dialWait(t, replicaAddr)
	waitFor(t, 10*time.Second, "replica link up", func() bool {
		return infoField(replicaC, "replication", "master_link") == "up"
	})
	coordC := dialWait(t, coordAddr)
	waitFor(t, 10*time.Second, "master in routing table", func() bool {
		v, err := coordC.Do("CLUSTER", "TABLE")
		s, _ := v.(string)
		return err == nil && strings.Contains(s, masterAddr)
	})
	// The handoff needs the coordinator to know r1 as a live replica. r1
	// registers on its own heartbeat schedule, which can trail its
	// replication link: a first dial that finds the coordinator still
	// starting backs off. Drained before that, m1 has no replica to hand
	// its slots to, and the coordinator promotes nobody.
	waitFor(t, 10*time.Second, "replica in membership", func() bool {
		v, err := coordC.Do("CLUSTER", "NODES")
		s, _ := v.(string)
		return err == nil && strings.Contains(s, "r1 "+replicaAddr+" replica")
	})

	rc, err := client.NewCluster(coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Live writers: with semisync-acks=1 every nil-error Set was applied
	// on the replica before the client saw OK, so none may be lost.
	var (
		mu         sync.Mutex
		acked      = make(map[string]string)
		termAt     atomic.Int64
		firstOK    atomic.Int64
		postTermOK atomic.Int64
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("drain:%d:%06d", w, i)
				val := fmt.Sprintf("v%d-%d", w, i)
				if err := rc.Set(key, val); err != nil {
					continue // drain window: not acked, move on
				}
				now := time.Now().UnixNano()
				mu.Lock()
				acked[key] = val
				mu.Unlock()
				if termAt.Load() != 0 {
					firstOK.CompareAndSwap(0, now)
					postTermOK.Add(1)
				}
			}
		}(w)
	}
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}

	waitFor(t, 20*time.Second, "pre-drain acked writes", func() bool { return ackedCount() >= 200 })
	preTerm := ackedCount()

	termAt.Store(time.Now().UnixNano())
	exitErr := master.term(t)
	if exitErr != nil {
		t.Fatalf("master did not exit cleanly on SIGTERM: %v\n%s", exitErr, master.out.String())
	}

	// Deregistration must have been observed by the coordinator before
	// the node went dark: the membership no longer lists m1, and the
	// promotion was the DEREGISTER handoff, not the failure detector
	// (which would need the 750ms heartbeat timeout and logs "failed").
	v, err := coordC.Do("CLUSTER", "NODES")
	if err != nil {
		t.Fatal(err)
	}
	if nodes, _ := v.(string); strings.Contains(nodes, "m1 ") {
		t.Fatalf("m1 still in membership after drain:\n%s", nodes)
	}
	waitFor(t, 10*time.Second, "handoff promotion in coordinator log", func() bool {
		return strings.Contains(coord.out.String(), "deregistered; promoting r1")
	})
	if strings.Contains(coord.out.String(), "master m1 ("+masterAddr+") failed") {
		t.Fatalf("promotion came from the failure detector, not the drain handoff:\n%s", coord.out.String())
	}

	// The promoted replica serves writes; same routed client, never
	// restarted.
	waitFor(t, 15*time.Second, "replica promotion", func() bool {
		return infoField(replicaC, "replication", "role") == "master"
	})
	waitFor(t, 15*time.Second, "post-drain acked writes", func() bool { return postTermOK.Load() >= 200 })
	close(stop)
	wg.Wait()

	window := time.Duration(firstOK.Load() - termAt.Load())
	t.Logf("drain: %d writes acked pre-term, %d post-term, client error window %v",
		preTerm, postTermOK.Load(), window.Round(time.Millisecond))
	if window <= 0 || window > 10*time.Second {
		t.Fatalf("client error window out of bounds: %v", window)
	}

	// Zero acked-write loss: every acknowledged value is readable from
	// the surviving topology.
	mu.Lock()
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	mu.Unlock()
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
				t.Fatalf("acked write lost across drain: %s = %q, want %q", k, got[k], acked[k])
			}
		}
	}
	t.Logf("verified %d acked writes intact across the drain", len(keys))
}
