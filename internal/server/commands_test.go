package server

import (
	"bufio"
	"strings"
	"testing"
	"time"
)

// --- three bugs the table closed; each test speaks only the wire ---

// TestUnknownCommandCannotForgeReply: the unknown-command error repeats the
// client's name back, and a name that holds CR LF used to end the error
// line early, so the rest of the name arrived as a second reply. One
// command must get one reply, and a huge name must not be echoed whole.
func TestUnknownCommandCannotForgeReply(t *testing.T) {
	s, _ := startTestServer(t, Options{})
	nc := rawDial(t, s.Addr())
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	ask := func(name string) string {
		t.Helper()
		if _, err := nc.Write(encodeCmd(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(encodeCmd("PING")); err != nil {
			t.Fatal(err)
		}
		reply, err := readRawReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(reply, "-ERR unknown command") {
			t.Fatalf("reply to %.20q: %q", name, reply)
		}
		if next, err := readRawReply(br); err != nil || next != "+PONG\r\n" {
			t.Fatalf("after the error for %.20q came %q (%v), want PING's +PONG: the name forged a reply", name, next, err)
		}
		return reply
	}
	if reply := ask("FOO\r\n+OK"); !strings.Contains(reply, `FOO\x0d\x0a+OK`) {
		t.Errorf("control bytes not escaped: %q", reply)
	}
	if reply := ask(strings.Repeat("N", 1<<20)); len(reply) > 128 {
		t.Errorf("a 1 MiB name was echoed in a %d-byte error", len(reply))
	}
}

// TestSurplusArgumentsRejected: commands that read only the arguments they
// knew answered for part of the request — EXISTS a b for a alone, LPOP k 5
// popping one element, ZRANGE's junk option read as no option.
func TestSurplusArgumentsRejected(t *testing.T) {
	_, c := startTestServer(t, Options{})
	c.Do("RPUSH", "l", "x", "y", "z")
	c.Do("ZADD", "z", "1", "m")
	c.Set("a", "1")
	for _, cmd := range [][]string{
		{"EXISTS", "a", "b"}, {"LPOP", "l", "5"}, {"GET", "a", "b"}, {"PING", "x"},
		{"INCR", "n", "2"}, {"ZRANGE", "z", "0", "-1", "junk"}, {"ZRANGE", "z", "0", "-1", "WITHSCORES", "x"},
	} {
		if v, err := c.Do(cmd...); err == nil {
			t.Errorf("%v accepted: %v", cmd, v)
		}
	}
	if v, _ := c.Do("LLEN", "l"); v.(int64) != 3 {
		t.Errorf("a refused LPOP popped: LLEN %v", v)
	}
	// Every arity error names its command.
	for _, cmd := range [][]string{{"INCRBY", "n"}, {"LPUSH", "l"}, {"SADD", "s"}} {
		_, err := c.Do(cmd...)
		want := "wrong number of arguments for '" + strings.ToLower(cmd[0]) + "'"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: error %v, want %q", cmd, err, want)
		}
	}
}

// TestExpireOverflowRefused: ten billion seconds wrapped time.Duration, the
// deadline landed in the past, the key was deleted on its next touch and
// the deadline went to the replicas. It must be refused with the key and
// the op log untouched.
func TestExpireOverflowRefused(t *testing.T) {
	s, c := startMaster(t, nil)
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	seq := s.repl.log.Seq()
	for _, secs := range []string{"10000000000", "9223372036854775807", "-10000000000"} {
		_, err := c.Do("EXPIRE", "k", secs)
		if err == nil || !strings.Contains(err.Error(), "invalid expire time") {
			t.Errorf("EXPIRE k %s: %v, want invalid expire time", secs, err)
		}
	}
	if v, err := c.Get("k"); err != nil || v != "v" {
		t.Errorf("GET k after a refused EXPIRE: %q, %v", v, err)
	}
	if got := s.repl.log.Seq(); got != seq {
		t.Errorf("a refused EXPIRE reached the op log: seq %d -> %d", seq, got)
	}
	if v, err := c.Do("EXPIRE", "k", "1000"); err != nil || v.(int64) != 1 {
		t.Fatalf("EXPIRE k 1000: %v, %v", v, err)
	}
	if got := s.repl.log.Seq(); got != seq+1 {
		t.Errorf("a good EXPIRE did not reach the op log: seq %d -> %d", seq, got)
	}
}

// --- tests that walk the command table ---

// dispatchArgs runs one command through dispatch on a connection with no
// socket and returns the reply bytes.
func dispatchArgs(s *Server, args ...[]byte) string {
	c := newConn(s, nil)
	s.dispatch(c, args)
	return string(c.out)
}

// argsFor builds name followed by n-1 arguments that parse as integers.
func argsFor(name string, n int) [][]byte {
	args := [][]byte{[]byte(name)}
	for len(args) < n {
		args = append(args, []byte("1"))
	}
	return args
}

// TestTableArity: every row refuses one argument too few and, at a fixed
// arity, one too many, by the same error, before anything is written.
func TestTableArity(t *testing.T) {
	s, _ := startTestServer(t, Options{})
	for _, cmd := range commands {
		want := "-ERR wrong number of arguments for '" + strings.ToLower(cmd.name) + "'\r\n"
		n := max(cmd.arity, -cmd.arity)
		counts := []int{n - 1}
		if cmd.arity > 0 {
			counts = append(counts, n+1)
		}
		if cmd.keys == keysEveryOther {
			counts = append(counts, n+1) // a key without its value
		}
		for _, name := range append([]string{cmd.name}, cmd.aliases...) {
			for _, count := range counts {
				if count == 0 {
					continue
				}
				if got := dispatchArgs(s, argsFor(strings.ToLower(name), count)...); got != want {
					t.Errorf("%s with %d arguments: %q, want %q", name, count-1, got, want)
				}
			}
		}
	}
	if got := dispatchArgs(s, []byte("DBSIZE")); got != ":0\r\n" {
		t.Errorf("DBSIZE after refused commands: %q", got)
	}
}

// TestTableWriteGates: a row is marked write exactly when the overload gate
// and the replica's redirect refuse it; nothing else is refused by either.
func TestTableWriteGates(t *testing.T) {
	overloaded, _ := startTestServer(t, Options{})
	overloaded.over.overloaded.Store(true)
	master, _ := startMaster(t, nil)
	replica, _ := startReplicaOf(t, master, "r1", nil)
	for _, cmd := range commands {
		args := argsFor(cmd.name, max(cmd.arity, -cmd.arity))
		got := dispatchArgs(overloaded, args...)
		if refused := strings.HasPrefix(got, "-OVERLOADED"); refused != cmd.write {
			t.Errorf("%s above the watermark: %q, write is %v", cmd.name, got, cmd.write)
		}
		got = dispatchArgs(replica, args...)
		if refused := strings.HasPrefix(got, "-MOVED"); refused != cmd.write {
			t.Errorf("%s on a replica: %q, write is %v", cmd.name, got, cmd.write)
		}
	}
}
