// Package client is the Go client for TierBase's RESP protocol (the
// client tier of paper §3). It speaks RESP2 over TCP through a
// multiplexed connection core: any number of goroutines share one
// connection, concurrent requests drain to the wire in one buffered
// write + flush per window, and same-window single-key GETs/SETs
// auto-coalesce into MGET/MSET — the paper's access-path batching moved
// client-side. Typed helpers sit over the raw Do interface, and a routed
// variant consults a cluster routing table to reach the right shard
// process with one multiplexed connection per node. See README.md for
// the mux architecture and error model.
package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"
)

// Nil is returned for absent keys (RESP nil bulk).
var Nil = errors.New("client: nil reply")

// Dial connects to a TierBase (or Redis) server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, &ConnError{Err: fmt.Errorf("dial %s: %w", addr, err)}
	}
	return newClient(conn), nil
}

// Close releases the connection. In-flight calls fail with ErrClosed
// rather than waiting on replies that may never come.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return c.closeErr
}

// Do sends one command and reads its reply. Do never coalesces: the
// command ships verbatim (sharing the drain window's flush), so raw
// single-command semantics — including error replies like WRONGTYPE —
// are exactly the server's.
// Reply types: string (simple/bulk), int64, []interface{}, Nil error.
func (c *Client) Do(args ...string) (interface{}, error) {
	return c.doKind(kindOther, args)
}

func (c *Client) doKind(kind callKind, args []string) (interface{}, error) {
	cl := newCall(kind, [][]string{args})
	if err := c.enqueue(cl); err != nil {
		return nil, err
	}
	<-cl.done
	return cl.replies[0], cl.errs[0]
}

// Pipeline sends multiple commands in one round trip and returns their
// replies in order. The commands ship verbatim back to back (no
// coalescing inside a pipeline), sharing the drain window — and hence
// the flush — with whatever else is in flight.
func (c *Client) Pipeline(cmds [][]string) ([]interface{}, []error) {
	if len(cmds) == 0 {
		return []interface{}{}, []error{}
	}
	cl := newCall(kindOther, cmds)
	if err := c.enqueue(cl); err != nil {
		outs := make([]interface{}, len(cmds))
		errs := make([]error, len(cmds))
		for i := range errs {
			errs[i] = err
		}
		return outs, errs
	}
	<-cl.done
	return cl.replies, cl.errs
}

// --- typed helpers ---

// Ping checks liveness.
func (c *Client) Ping() error {
	v, err := c.Do("PING")
	if err != nil {
		return err
	}
	if v != "PONG" {
		return fmt.Errorf("client: unexpected ping reply %v", v)
	}
	return nil
}

// Set stores key=val. Concurrent Sets sharing a drain window coalesce
// into one MSET (reply semantics are identical either way).
func (c *Client) Set(key, val string) error {
	_, err := c.doKind(kindSet, []string{"SET", key, val})
	return err
}

// Get fetches key (Nil if absent). Gets always ride the drain window's
// MGET — one key alone or many coalesced — so their semantics are
// MGET's in every window shape: like Redis, a key holding a non-string
// value reads as absent (Nil) rather than a WRONGTYPE error, and never
// differently depending on unrelated concurrent traffic. Use
// Do("GET", key) for strict single-command semantics.
func (c *Client) Get(key string) (string, error) {
	v, err := c.doKind(kindGet, []string{"GET", key})
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("client: unexpected GET reply %T", v)
	}
	return s, nil
}

// MGet fetches many keys in one MGET round trip; absent keys are omitted
// from the result.
func (c *Client) MGet(keys ...string) (map[string]string, error) {
	if len(keys) == 0 {
		return map[string]string{}, nil
	}
	args := append([]string{"MGET"}, keys...)
	v, err := c.Do(args...)
	if err != nil {
		return nil, err
	}
	arr, ok := v.([]interface{})
	if !ok || len(arr) != len(keys) {
		return nil, fmt.Errorf("client: unexpected MGET reply %T", v)
	}
	out := make(map[string]string, len(keys))
	for i, e := range arr {
		if s, ok := e.(string); ok {
			out[keys[i]] = s
		}
	}
	return out, nil
}

// MSet stores all pairs in one MSET round trip.
func (c *Client) MSet(pairs map[string]string) error {
	if len(pairs) == 0 {
		return nil
	}
	args := make([]string, 0, 1+2*len(pairs))
	args = append(args, "MSET")
	for k, v := range pairs {
		args = append(args, k, v)
	}
	_, err := c.Do(args...)
	return err
}

// Del removes keys in one DEL round trip, returning how many existed in
// any tier (the server consults the storage tier for keys the cache no
// longer holds).
func (c *Client) Del(keys ...string) (int64, error) {
	return c.del("DEL", keys)
}

// Unlink is DEL's non-blocking alias (Redis UNLINK); TierBase treats the
// two identically.
func (c *Client) Unlink(keys ...string) (int64, error) {
	return c.del("UNLINK", keys)
}

func (c *Client) del(cmd string, keys []string) (int64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	return c.doInt(append([]string{cmd}, keys...)...)
}

// Incr increments a counter.
func (c *Client) Incr(key string) (int64, error) {
	return c.doInt("INCR", key)
}

// CAS performs compare-and-set; returns whether the swap happened.
func (c *Client) CAS(key, oldVal, newVal string) (bool, error) {
	n, err := c.doInt("CAS", key, oldVal, newVal)
	return n == 1, err
}

// doInt runs a command whose reply is an integer; any other reply is an
// error, not a panic.
func (c *Client) doInt(args ...string) (int64, error) {
	v, err := c.Do(args...)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("client: unexpected %s reply %T", args[0], v)
	}
	return n, nil
}

// Info fetches one INFO section ("" = every section) as field → value.
// Section headers ("# Server") and blank lines carry no colon and are
// dropped. It is the module's one INFO parser for Go callers.
func (c *Client) Info(section string) (map[string]string, error) {
	args := []string{"INFO"}
	if section != "" {
		args = append(args, section)
	}
	v, err := c.Do(args...)
	if err != nil {
		return nil, err
	}
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("client: unexpected INFO reply %T", v)
	}
	fields := make(map[string]string)
	for _, line := range strings.Split(s, "\r\n") {
		if k, val, ok := strings.Cut(line, ":"); ok {
			fields[k] = val
		}
	}
	return fields, nil
}
