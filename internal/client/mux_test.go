package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubServer is a minimal in-test RESP server that records every command
// it receives, so tests can assert what actually crossed the wire (e.g.
// that a window of concurrent GETs arrived as one MGET).
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

// gateWriter blocks the client's writer before its next drain so a test
// can pile concurrent requests into one deterministic window; the
// returned release function opens the gate.
func gateWriter(c *Client) (release func()) {
	gate := make(chan struct{})
	c.mu.Lock()
	c.testGate = gate
	c.mu.Unlock()
	return func() { close(gate) }
}

func waitPending(t *testing.T, c *Client, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		n := 0
		for _, cl := range c.pending {
			n += len(cl.cmds)
		}
		c.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending=%d, want %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainWindowCoalescesGetsIntoOneMGET is the acceptance-criteria
// test: K concurrent single-key Gets sharing one drain window must reach
// the server as exactly one MGET (one round trip), with each caller
// receiving its own key's value.
func TestDrainWindowCoalescesGetsIntoOneMGET(t *testing.T) {
	const K = 16
	srv := startStub(t)
	c := dialStub(t, srv)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	val := func(i int) string { return fmt.Sprintf("v%02d", i) }
	for i := 0; i < K; i++ {
		if err := c.Set(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.counts()

	release := gateWriter(c)
	vals := make([]string, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.Get(key(i))
		}(i)
	}
	waitPending(t, c, K) // every Get is queued; the writer is gated
	release()
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("get %d: %v", i, errs[i])
		}
		if vals[i] != val(i) {
			t.Fatalf("get %d: got %q, want %q (cross-matched reply?)", i, vals[i], val(i))
		}
	}
	after := srv.counts()
	if got := after["MGET"] - before["MGET"]; got != 1 {
		t.Fatalf("window produced %d MGETs on the wire, want exactly 1", got)
	}
	if got := after["GET"] - before["GET"]; got != 0 {
		t.Fatalf("window leaked %d plain GETs, want 0", got)
	}
	if mget := srv.lastOf("MGET"); len(mget)-1 != K {
		t.Fatalf("wire MGET carried %d keys, want %d", len(mget)-1, K)
	}
	st := c.Stats()
	if st.CoalescedGets != K {
		t.Fatalf("CoalescedGets=%d, want %d", st.CoalescedGets, K)
	}
}

// TestDrainWindowCoalescesSetsIntoOneMSET is the write-side twin: K
// concurrent Sets in one window arrive as one MSET and every value
// lands.
func TestDrainWindowCoalescesSetsIntoOneMSET(t *testing.T) {
	const K = 8
	srv := startStub(t)
	c := dialStub(t, srv)
	key := func(i int) string { return fmt.Sprintf("s%02d", i) }
	val := func(i int) string { return fmt.Sprintf("w%02d", i) }

	release := gateWriter(c)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Set(key(i), val(i))
		}(i)
	}
	waitPending(t, c, K)
	release()
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("set %d: %v", i, errs[i])
		}
	}
	counts := srv.counts()
	if counts["MSET"] != 1 || counts["SET"] != 0 {
		t.Fatalf("wire saw MSET=%d SET=%d, want 1/0", counts["MSET"], counts["SET"])
	}
	for i := 0; i < K; i++ {
		if v, err := c.Get(key(i)); err != nil || v != val(i) {
			t.Fatalf("readback %d: %q %v", i, v, err)
		}
	}
	if st := c.Stats(); st.CoalescedSets != K {
		t.Fatalf("CoalescedSets=%d, want %d", st.CoalescedSets, K)
	}
}

// TestTypedGetAlwaysRidesMGET: a lone typed Get ships as a one-key MGET
// (so Get has MGET semantics deterministically, whatever the window
// holds), while raw Do("GET", ...) ships verbatim and never coalesces.
func TestTypedGetAlwaysRidesMGET(t *testing.T) {
	srv := startStub(t)
	c := dialStub(t, srv)
	if err := c.Set("solo", "x"); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get("solo"); err != nil || v != "x" {
		t.Fatalf("get: %q %v", v, err)
	}
	counts := srv.counts()
	if counts["GET"] != 0 || counts["MGET"] != 1 {
		t.Fatalf("typed Get wire: GET=%d MGET=%d, want 0/1", counts["GET"], counts["MGET"])
	}
	if mget := srv.lastOf("MGET"); len(mget) != 2 || mget[1] != "solo" {
		t.Fatalf("one-key MGET malformed: %v", mget)
	}
	if st := c.Stats(); st.CoalescedGets != 0 {
		t.Fatalf("a lone Get is not coalescing: CoalescedGets=%d, want 0", st.CoalescedGets)
	}
	if v, err := c.Do("GET", "solo"); err != nil || v != "x" {
		t.Fatalf("raw GET: %v %v", v, err)
	}
	counts = srv.counts()
	if counts["GET"] != 1 || counts["MGET"] != 1 {
		t.Fatalf("raw Do wire: GET=%d MGET=%d, want 1/1", counts["GET"], counts["MGET"])
	}
}

// TestMixedWindow: pipelines and Do calls share the window with
// coalesced gets/sets without replies crossing.
func TestMixedWindow(t *testing.T) {
	srv := startStub(t)
	c := dialStub(t, srv)
	if err := c.Set("p", "q"); err != nil {
		t.Fatal(err)
	}

	release := gateWriter(c)
	var wg sync.WaitGroup
	var getV string
	var getErr error
	var pipeOuts []interface{}
	var pipeErrs []error
	var setErr error
	wg.Add(3)
	go func() { defer wg.Done(); getV, getErr = c.Get("p") }()
	go func() {
		defer wg.Done()
		pipeOuts, pipeErrs = c.Pipeline([][]string{{"PING"}, {"GET", "p"}, {"GET", "absent"}})
	}()
	go func() { defer wg.Done(); setErr = c.Set("w", "z") }()
	waitPending(t, c, 5)
	release()
	wg.Wait()

	if getErr != nil || getV != "q" {
		t.Fatalf("get: %q %v", getV, getErr)
	}
	if setErr != nil {
		t.Fatalf("set: %v", setErr)
	}
	if pipeErrs[0] != nil || pipeOuts[0] != "PONG" {
		t.Fatalf("pipe[0]: %v %v", pipeOuts[0], pipeErrs[0])
	}
	if pipeErrs[1] != nil || pipeOuts[1] != "q" {
		t.Fatalf("pipe[1]: %v %v", pipeOuts[1], pipeErrs[1])
	}
	if pipeErrs[2] != Nil {
		t.Fatalf("pipe[2]: %v %v, want Nil", pipeOuts[2], pipeErrs[2])
	}
	if st := c.Stats(); st.Flushes != 2 { // warm-up SET, then the window
		t.Fatalf("flushes=%d, want 2", st.Flushes)
	}
}

// TestCoalescedGetDemuxesNil: absent keys inside a coalesced MGET come
// back as Nil, exactly like a plain GET.
func TestCoalescedGetDemuxesNil(t *testing.T) {
	srv := startStub(t)
	c := dialStub(t, srv)
	if err := c.Set("have", "v"); err != nil {
		t.Fatal(err)
	}
	release := gateWriter(c)
	var wg sync.WaitGroup
	var haveV, missV string
	var haveErr, missErr error
	wg.Add(2)
	go func() { defer wg.Done(); haveV, haveErr = c.Get("have") }()
	go func() { defer wg.Done(); missV, missErr = c.Get("miss") }()
	waitPending(t, c, 2)
	release()
	wg.Wait()
	if haveErr != nil || haveV != "v" {
		t.Fatalf("have: %q %v", haveV, haveErr)
	}
	if missErr != Nil || missV != "" {
		t.Fatalf("miss: %q %v, want Nil", missV, missErr)
	}
	if counts := srv.counts(); counts["MGET"] != 1 {
		t.Fatalf("MGET count=%d, want 1", counts["MGET"])
	}
}

// TestConnectionErrorIsSticky reproduces the old desync bug's setup: the
// server dies mid-conversation. The mux must fail every in-flight call
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

// TestIntegerCommandsRefuseOtherReplies: Incr and CAS read an integer
// reply; a server that answers with a bulk string gets an error back, not a
// panic in the caller.
func TestIntegerCommandsRefuseOtherReplies(t *testing.T) {
	srv := startStub(t)
	srv.hook = func(args []string) string {
		if cmd := strings.ToUpper(args[0]); cmd == "INCR" || cmd == "CAS" {
			return "$1\r\n5\r\n"
		}
		return ""
	}
	c := dialStub(t, srv)
	if n, err := c.Incr("k"); err == nil || !strings.Contains(err.Error(), "unexpected INCR reply") {
		t.Errorf("INCR answered with a bulk: %d, %v", n, err)
	}
	if ok, err := c.CAS("k", "a", "b"); err == nil || ok {
		t.Errorf("CAS answered with a bulk: %v, %v", ok, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after a refused reply: %v", err)
	}
}

// TestCloseFailsInflight: Close while calls are gated in the pending
// queue releases every waiter with ErrClosed instead of hanging.
func TestCloseFailsInflight(t *testing.T) {
	srv := startStub(t)
	c, err := Dial(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	release := gateWriter(c)
	const K = 8
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do("PING")
		}(i)
	}
	waitPending(t, c, K)
	c.Close()
	release() // writer wakes, sees the sticky error, exits
	wg.Wait()
	for i, e := range errs {
		if !errors.Is(e, ErrClosed) {
			t.Fatalf("call %d: %v, want ErrClosed", i, e)
		}
	}
}
