package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubServer is a minimal in-test RESP server that records every command
// it receives, so tests can assert what actually crossed the wire.
type stubServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu   sync.Mutex
	cmds [][]string
	kv   map[string]string

	// closeAfter, when > 0, makes the server close each connection after
	// serving that many commands on it — a misbehaving-peer injector.
	closeAfter int

	// hook, when set, gets first crack at every command (under s.mu); a
	// non-empty return is written verbatim as the reply. Lets redirect
	// tests inject -MOVED responses per key.
	hook func(args []string) string
}

func startStub(t *testing.T) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{ln: ln, kv: make(map[string]string)}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *stubServer) addr() string { return s.ln.Addr().String() }

func (s *stubServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *stubServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	served := 0
	for {
		args, err := s.readCommand(r)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.cmds = append(s.cmds, args)
		limit := s.closeAfter
		s.mu.Unlock()
		s.reply(w, args)
		served++
		if r.Buffered() == 0 {
			if w.Flush() != nil {
				return
			}
		}
		if limit > 0 && served >= limit {
			w.Flush()
			return
		}
	}
}

func (s *stubServer) readCommand(r *bufio.Reader) ([]string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	line = strings.TrimRight(line, "\r\n")
	if len(line) == 0 || line[0] != '*' {
		return nil, fmt.Errorf("stub: bad command header %q", line)
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil {
		return nil, err
	}
	args := make([]string, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		hdr = strings.TrimRight(hdr, "\r\n")
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, fmt.Errorf("stub: bad bulk header %q", hdr)
		}
		blen, err := strconv.Atoi(hdr[1:])
		if err != nil {
			return nil, err
		}
		buf := make([]byte, blen+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		args = append(args, string(buf[:blen]))
	}
	return args, nil
}

func (s *stubServer) reply(w *bufio.Writer, args []string) {
	cmd := strings.ToUpper(args[0])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hook != nil {
		if reply := s.hook(args); reply != "" {
			w.WriteString(reply)
			return
		}
	}
	switch cmd {
	case "PING":
		fmt.Fprintf(w, "+PONG\r\n")
	case "SET":
		s.kv[args[1]] = args[2]
		fmt.Fprintf(w, "+OK\r\n")
	case "MSET":
		for i := 1; i+1 < len(args); i += 2 {
			s.kv[args[i]] = args[i+1]
		}
		fmt.Fprintf(w, "+OK\r\n")
	case "GET":
		if v, ok := s.kv[args[1]]; ok {
			fmt.Fprintf(w, "$%d\r\n%s\r\n", len(v), v)
		} else {
			fmt.Fprintf(w, "$-1\r\n")
		}
	case "MGET":
		fmt.Fprintf(w, "*%d\r\n", len(args)-1)
		for _, k := range args[1:] {
			if v, ok := s.kv[k]; ok {
				fmt.Fprintf(w, "$%d\r\n%s\r\n", len(v), v)
			} else {
				fmt.Fprintf(w, "$-1\r\n")
			}
		}
	case "BOOM":
		fmt.Fprintf(w, "-ERR boom\r\n")
	default:
		fmt.Fprintf(w, "-ERR stub: unknown command '%s'\r\n", cmd)
	}
}

// counts returns how many commands of each name the server has seen.
func (s *stubServer) counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for _, c := range s.cmds {
		out[strings.ToUpper(c[0])]++
	}
	return out
}

// lastOf returns the last received command with the given name.
func (s *stubServer) lastOf(name string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.cmds) - 1; i >= 0; i-- {
		if strings.EqualFold(s.cmds[i][0], name) {
			return s.cmds[i]
		}
	}
	return nil
}

func dialStub(t *testing.T, s *stubServer) *Client {
	t.Helper()
	c, err := Dial(s.addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConnectionErrorIsSticky reproduces the old desync bug's setup: the
// server dies mid-conversation. The client must fail every in-flight call
// AND every later call with the sticky error — never read a stale reply.
func TestConnectionErrorIsSticky(t *testing.T) {
	srv := startStub(t)
	srv.mu.Lock()
	srv.closeAfter = 1
	srv.mu.Unlock()
	c := dialStub(t, srv)

	if err := c.Ping(); err != nil { // served, then the conn dies
		t.Fatal(err)
	}
	_, err := c.Do("PING")
	if err == nil {
		t.Fatal("command after server hangup should fail")
	}
	sticky := c.Err()
	if sticky == nil {
		t.Fatal("sticky error not installed")
	}
	// Every subsequent call fails fast with the sticky error.
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := c.Do("PING"); !errors.Is(err, sticky) {
			t.Fatalf("call %d: err=%v, want sticky %v", i, err, sticky)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("fail-fast took %v", d)
		}
	}
	if err := c.Set("k", "v"); !errors.Is(err, sticky) {
		t.Fatalf("Set: %v, want sticky", err)
	}
	_, errs := c.Pipeline([][]string{{"PING"}, {"PING"}})
	for i, e := range errs {
		if !errors.Is(e, sticky) {
			t.Fatalf("pipeline[%d]: %v, want sticky", i, e)
		}
	}
}

// TestMidPipelineHangupFailsRemainder: replies delivered before the
// connection died stand; the remainder fail; the client is broken after.
func TestMidPipelineHangupFailsRemainder(t *testing.T) {
	srv := startStub(t)
	srv.mu.Lock()
	srv.closeAfter = 2
	srv.mu.Unlock()
	c := dialStub(t, srv)

	outs, errs := c.Pipeline([][]string{{"PING"}, {"PING"}, {"PING"}, {"PING"}})
	if errs[0] != nil || outs[0] != "PONG" {
		t.Fatalf("reply 0: %v %v", outs[0], errs[0])
	}
	if errs[1] != nil || outs[1] != "PONG" {
		t.Fatalf("reply 1: %v %v", outs[1], errs[1])
	}
	if errs[2] == nil || errs[3] == nil {
		t.Fatalf("replies past the hangup must fail: %v %v", errs[2], errs[3])
	}
	if c.Err() == nil {
		t.Fatal("client must be sticky-broken after a mid-pipeline hangup")
	}
	if _, err := c.Do("GET", "k"); err == nil {
		t.Fatal("post-hangup call must fail (old code would desync here)")
	}
}

// TestServerErrorReplyIsNotSticky: an in-protocol -ERR reply fails only
// its own call; the connection stays healthy.
func TestServerErrorReplyIsNotSticky(t *testing.T) {
	srv := startStub(t)
	c := dialStub(t, srv)
	if _, err := c.Do("BOOM"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("BOOM: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("server error reply must not break the client: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after -ERR: %v", err)
	}
}

// TestIntegerCommandsRefuseOtherReplies: Del reads an integer reply; a
// server that answers with a bulk string gets an error back, not a panic
// in the caller.
func TestIntegerCommandsRefuseOtherReplies(t *testing.T) {
	srv := startStub(t)
	srv.hook = func(args []string) string {
		if strings.ToUpper(args[0]) == "DEL" {
			return "$1\r\n5\r\n"
		}
		return ""
	}
	c := dialStub(t, srv)
	if n, err := c.Del("k"); err == nil || !strings.Contains(err.Error(), "unexpected DEL reply") {
		t.Errorf("DEL answered with a bulk: %d, %v", n, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after a refused reply: %v", err)
	}
}

// TestCloseFailsInflight: Close while a round trip waits on a server that
// never answers releases it with ErrClosed instead of hanging, and every
// later call fails fast with the same error.
func TestCloseFailsInflight(t *testing.T) {
	srv := startStub(t)
	srv.hook = func(args []string) string {
		if strings.EqualFold(args[0], "MUTE") {
			return "$5\r\nab" // half a reply: the client waits on the rest
		}
		return ""
	}
	c := dialStub(t, srv)
	done := make(chan error, 1)
	go func() {
		_, err := c.Do("MUTE")
		done <- err
	}()
	for srv.counts()["MUTE"] == 0 { // the round trip is on the wire
		time.Sleep(time.Millisecond)
	}
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Do: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the blocked round trip")
	}
	start := time.Now()
	if _, err := c.Do("PING"); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: %v, want ErrClosed", err)
	}
	if _, errs := c.Pipeline([][]string{{"PING"}, {"PING"}}); !errors.Is(errs[0], ErrClosed) || !errors.Is(errs[1], ErrClosed) {
		t.Fatalf("pipeline after Close: %v", errs)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("fail-fast took %v", d)
	}
}

// TestGetSendsGET: a typed Get ships as one GET, so a key that holds a
// collection answers the server's WRONGTYPE error, as Do("GET", k) does,
// while MGet reads it as absent.
func TestGetSendsGET(t *testing.T) {
	srv := startStub(t)
	srv.hook = func(args []string) string {
		switch cmd := strings.ToUpper(args[0]); {
		case cmd == "GET" && args[1] == "h":
			return "-WRONGTYPE Operation against a key holding the wrong kind of value\r\n"
		case cmd == "MGET":
			return "*1\r\n$-1\r\n"
		}
		return ""
	}
	c := dialStub(t, srv)
	if v, err := c.Get("h"); err == nil || !strings.HasPrefix(err.Error(), "WRONGTYPE") {
		t.Fatalf("Get on a hash key: %q, %v; want WRONGTYPE", v, err)
	}
	if got, err := c.MGet("h"); err != nil || len(got) != 0 {
		t.Fatalf("MGet on a hash key: %v, %v; want it absent", got, err)
	}
	if n := srv.counts(); n["GET"] != 1 || n["MGET"] != 1 {
		t.Fatalf("wire saw GET=%d MGET=%d, want 1/1", n["GET"], n["MGET"])
	}
	if err := c.Err(); err != nil {
		t.Fatalf("an error reply broke the client: %v", err)
	}
}

// TestClientStartsNoGoroutine: a Client is a socket and a mutex; Dial and
// a round trip leave no goroutine of the client's own running.
func TestClientStartsNoGoroutine(t *testing.T) {
	srv := startStub(t)
	before := runtime.NumGoroutine()
	c, err := Dial(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// The stub serves the connection on one goroutine of its own.
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Fatalf("goroutines %d -> %d: the client started %d", before, after, after-before-1)
	}
}
