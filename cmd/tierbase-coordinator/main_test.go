package main

import (
	"io"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"tierbase/internal/client"
)

// TestBadFlagsAreRefused: a flag the coordinator does not know, a value
// that does not parse and a heartbeat timeout that would fail every node
// at once each stop run before it listens.
func TestBadFlagsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-heartbeat-timeout", "soon"},
		{"-heartbeat-timeout", "0s"},
		{"-addr", "127.0.0.1:notaport"},
	} {
		if err := run(args, io.Discard, nil); err == nil {
			t.Errorf("run %q = nil, want an error", args)
		}
	}
}

// logLines hands each write of the coordinator's log to the test.
type logLines chan string

func (l logLines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}

// TestServesUntilStopped: a started coordinator answers CLUSTER TABLE on
// the address it logs, and a signal on stop closes it and ends run.
func TestServesUntilStopped(t *testing.T) {
	logs := make(logLines, 4)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}, logs, stop) }()

	var addr string
	select {
	case line := <-logs:
		m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("first log line %q names no address", line)
		}
		addr = m[1]
	case err := <-done:
		t.Fatalf("run ended before it listened: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never logged its address")
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Do("CLUSTER", "TABLE")
	if s, _ := v.(string); err != nil || !strings.HasPrefix(s, "{") {
		t.Fatalf("CLUSTER TABLE = %v, %v; want the routing table's JSON", v, err)
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after stop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not stop")
	}
	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc.Close()
		t.Fatalf("%s still accepts connections after stop", addr)
	}
}
