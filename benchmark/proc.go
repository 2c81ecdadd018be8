package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where a run builds and keeps its files: everything lives under
// <repo>/.bench_build, inside the checkout.
type env struct {
	root   string // repository root (holds BENCHMARK.json and cmd/)
	server string // built tierbase-server binary
	runDir string // per-invocation scratch, removed on exit

	mu    sync.Mutex
	nodes []*node
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: `go run -C benchmark .` starts in benchmark/, `go test`
// too.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// newEnv builds cmd/tierbase-server from the checkout's source (a no-op when
// the binary is current) and creates the scratch directory.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, server: filepath.Join(build, "bin", "tierbase-server")}
	cmd := exec.Command("go", "build", "-o", e.server, "./cmd/tierbase-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/tierbase-server: %v\n%s", err, out)
	}
	if err := os.MkdirAll(filepath.Join(build, "run"), 0o755); err != nil {
		return nil, err
	}
	e.runDir, err = os.MkdirTemp(filepath.Join(build, "run"), "r")
	return e, err
}

// close kills every child still running and removes the scratch directory.
// It is safe to call more than once and from the signal handler.
func (e *env) close() {
	e.mu.Lock()
	nodes := e.nodes
	e.nodes = nil
	e.mu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
	os.RemoveAll(e.runDir)
}

// tempDir returns a fresh directory under the scratch directory.
func (e *env) tempDir(name string) (string, error) {
	return os.MkdirTemp(e.runDir, name+"-")
}

// node is one tierbase-server child process.
type node struct {
	cmd    *exec.Cmd
	args   []string
	addr   string
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited

	mu   sync.Mutex
	tail []string // last stderr lines
}

func (n *node) stderrTail() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return strings.Join(n.tail, "\n")
}

// start spawns tierbase-server, waits for its "listening on" log line to
// learn the port it bound, and for a PING to be answered, within 10 s.
func (e *env) start(args []string) (*node, error) {
	n := &node{cmd: exec.Command(e.server, args...), args: args, exited: make(chan struct{})}
	setPdeathsig(n.cmd)
	stderr, err := n.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := n.cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.nodes = append(e.nodes, n)
	e.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			n.mu.Lock()
			if n.tail = append(n.tail, line); len(n.tail) > 30 {
				n.tail = n.tail[1:]
			}
			n.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		n.err = n.cmd.Wait() // after the pipe is drained, as os/exec requires
		close(n.exited)
	}()

	deadline := time.After(10 * time.Second)
	select {
	case n.addr = <-addrc:
	case <-n.exited:
		return nil, fmt.Errorf("tierbase-server exited before listening: %v\n%s", n.err, n.stderrTail())
	case <-deadline:
		n.kill()
		return nil, fmt.Errorf("tierbase-server did not report its address within 10 s\n%s", n.stderrTail())
	}
	for {
		if c, err := dial(n.addr); err == nil {
			reply, err := c.do("PING")
			c.close()
			if err == nil && reply == "PONG" {
				return n, nil
			}
		}
		select {
		case <-n.exited:
			return nil, fmt.Errorf("tierbase-server exited before answering PING: %v\n%s", n.err, n.stderrTail())
		case <-deadline:
			n.kill()
			return nil, fmt.Errorf("tierbase-server did not answer PING within 10 s\n%s", n.stderrTail())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (n *node) kill() {
	n.cmd.Process.Kill()
	<-n.exited
}

// stop sends SIGTERM and requires a clean exit (code 0) within 30 s.
func (n *node) stop() error {
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-n.exited:
	case <-time.After(30 * time.Second):
		n.kill()
		return fmt.Errorf("tierbase-server still running 30 s after SIGTERM\n%s", n.stderrTail())
	}
	if n.err != nil {
		return fmt.Errorf("tierbase-server after SIGTERM: %v\n%s", n.err, n.stderrTail())
	}
	return nil
}

// info fetches one INFO section as a key → value map.
func (c *client) info(section string) (map[string]string, error) {
	text, err := c.do("INFO", section)
	if err != nil {
		return nil, fmt.Errorf("INFO %s: %w", section, err)
	}
	m := make(map[string]string)
	for _, line := range strings.Split(text, "\r\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			m[k] = v
		}
	}
	return m, nil
}

func atoi(s string) int64 {
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}

// quiesce polls INFO until the storage tier is at rest: no sealed memtable
// waiting, no dirty write-back entry, and the flush and compaction counters
// unchanged for one second. With a replica, its applied sequence must also
// have reached the master's head.
func quiesce(ctl *client, replica *client) error {
	deadline := time.Now().Add(60 * time.Second)
	var last string
	var since time.Time
	for time.Now().Before(deadline) {
		state, calm, err := storageState(ctl)
		if err != nil {
			return err
		}
		if replica != nil {
			rs, rcalm, err := storageState(replica)
			if err != nil {
				return err
			}
			mi, err := ctl.info("replication")
			if err != nil {
				return err
			}
			ri, err := replica.info("replication")
			if err != nil {
				return err
			}
			state += "|" + rs
			calm = calm && rcalm && mi["repl_seq"] == ri["last_applied_seq"]
		}
		if state != last || !calm {
			last, since = state, time.Now()
		} else if time.Since(since) >= time.Second {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("storage tier still busy after 60 s: %s", last)
}

func storageState(c *client) (state string, calm bool, err error) {
	st, err := c.info("storage")
	if err != nil {
		return "", false, err
	}
	wp, err := c.info("writepath")
	if err != nil {
		return "", false, err
	}
	state = st["shard0_flushes"] + "/" + st["shard0_compactions"]
	return state, st["shard0_immutables"] == "0" && wp["dirty_entries"] == "0", nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) { // compaction removed it mid-walk
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n, err
}
