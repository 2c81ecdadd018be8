// Package e2e runs the compiled binaries as real processes: a
// coordinator, a semi-sync master and a replica, with live cluster-client
// traffic, then SIGKILLs the master and asserts the paper's failover
// story end to end (§3): the coordinator detects the silence, promotes
// the replica, the routed client refollows the table without restarting,
// and no write the master ever acknowledged is lost.
package e2e

import (
	"bytes"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierbase/internal/client"
)

// buildBinaries compiles tierbase-server and tierbase-coordinator into a
// temp dir and returns it. Build cache makes repeat runs cheap.
func buildBinaries(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH; cannot build binaries for e2e")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	cmd := exec.Command(goBin, "build", "-o", bin, "./cmd/tierbase-server", "./cmd/tierbase-coordinator")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral localhost port and releases it for the
// process under test to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// syncBuffer is a mutex-guarded bytes.Buffer: exec's pipe copier writes
// to it while tests poll the output of a still-running process.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one spawned binary; its combined output is dumped if the test
// fails.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *syncBuffer
}

func startProc(t *testing.T, name, path string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(path, args...)
	var buf syncBuffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	p := &proc{name: name, cmd: cmd, out: &buf}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		if t.Failed() {
			t.Logf("--- %s output ---\n%s", p.name, p.out.String())
		}
	})
	return p
}

// kill SIGKILLs the process and reaps it, so death is abrupt (no
// graceful close — the socket just dies under the replica and clients).
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill %s: %v", p.name, err)
	}
	p.cmd.Wait()
}

// waitFor polls cond until it holds or the deadline fails the test.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// dialWait dials a RESP server, retrying while the process boots.
func dialWait(t *testing.T, addr string) *client.Client {
	t.Helper()
	var c *client.Client
	waitFor(t, 10*time.Second, "server at "+addr, func() bool {
		var err error
		c, err = client.Dial(addr)
		return err == nil
	})
	t.Cleanup(func() { c.Close() })
	return c
}

// infoField reads one field of INFO <section>; empty on any failure so it
// can sit inside waitFor conditions.
func infoField(c *client.Client, section, field string) string {
	fields, _ := c.Info(section)
	return fields[field]
}

// TestClusterFailover is the live three-process drill: coordinator +
// semi-sync master + replica, writers driving the slot-routed client the
// whole time, master killed mid-traffic. Asserts promotion, client
// refresh without restart, zero acked-write loss, and reports the
// measured write blackout.
func TestClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildBinaries(t)
	coordAddr := freeAddr(t)
	masterAddr := freeAddr(t)
	replicaAddr := freeAddr(t)

	startProc(t, "coordinator", filepath.Join(bin, "tierbase-coordinator"),
		"-addr", coordAddr, "-heartbeat-timeout", "750ms", "-check-interval", "150ms")
	master := startProc(t, "master", filepath.Join(bin, "tierbase-server"),
		"-addr", masterAddr, "-node-id", "m1", "-coordinator", coordAddr,
		"-heartbeat-interval", "100ms", "-semisync-acks", "1", "-ack-timeout", "1s")
	startProc(t, "replica", filepath.Join(bin, "tierbase-server"),
		"-addr", replicaAddr, "-node-id", "r1", "-replicaof", masterAddr,
		"-coordinator", coordAddr, "-heartbeat-interval", "100ms")

	replicaC := dialWait(t, replicaAddr)
	waitFor(t, 10*time.Second, "replica link up", func() bool {
		return infoField(replicaC, "replication", "master_link") == "up"
	})
	// The routed client needs a table that already routes to the master.
	coordC := dialWait(t, coordAddr)
	waitFor(t, 10*time.Second, "master in routing table", func() bool {
		v, err := coordC.Do("CLUSTER", "TABLE")
		s, _ := v.(string)
		return err == nil && strings.Contains(s, masterAddr)
	})

	rc, err := client.NewCluster(coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Live writers: every nil-error Set was acknowledged under
	// semi-sync=1, i.e. the replica had applied it before the client saw
	// OK — those writes must survive the master's death.
	var (
		mu         sync.Mutex
		acked      = make(map[string]string)
		killedAt   atomic.Int64 // unixnano; 0 until the master is killed
		firstOK    atomic.Int64 // first acked write after the kill
		postKillOK atomic.Int64
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
				key := fmt.Sprintf("e2e:%d:%06d", w, i)
				val := fmt.Sprintf("v%d-%d", w, i)
				if err := rc.Set(key, val); err != nil {
					continue // blackout or NOREPLICAS: not acked, retry next key
				}
				now := time.Now().UnixNano()
				mu.Lock()
				acked[key] = val
				mu.Unlock()
				if killedAt.Load() != 0 {
					firstOK.CompareAndSwap(0, now)
					postKillOK.Add(1)
				}
			}
		}(w)
	}
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}

	waitFor(t, 20*time.Second, "pre-kill acked writes", func() bool { return ackedCount() >= 200 })
	preKill := ackedCount()

	master.kill(t)
	killedAt.Store(time.Now().UnixNano())

	// Coordinator must notice the silence and promote r1 — observed
	// directly on the live process, not on coordinator state.
	waitFor(t, 15*time.Second, "replica promotion", func() bool {
		return infoField(replicaC, "replication", "role") == "master"
	})
	// The same routed client (never restarted) must resume acked writes
	// against the promoted node.
	waitFor(t, 15*time.Second, "post-kill acked writes", func() bool { return postKillOK.Load() >= 200 })
	close(stop)
	wg.Wait()

	blackout := time.Duration(firstOK.Load() - killedAt.Load())
	t.Logf("failover: %d writes acked pre-kill, %d post-kill, write blackout %v",
		preKill, postKillOK.Load(), blackout.Round(time.Millisecond))
	if blackout <= 0 || blackout > 15*time.Second {
		t.Fatalf("implausible blackout measurement: %v", blackout)
	}

	// Zero acked-write loss: every acknowledged value must be readable
	// from the surviving topology, via the same routed client.
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
				t.Fatalf("acked write lost after failover: %s = %q, want %q", k, got[k], acked[k])
			}
		}
	}
	t.Logf("verified %d acked writes intact after failover", len(keys))
}
