// Package client is the Go client for TierBase's RESP protocol (the
// client tier of paper §3). A Client speaks RESP2 over one TCP
// connection and holds one mutex for a whole round trip: a call writes
// its commands in one write and reads their replies before the next call
// starts. Connection errors are sticky. Typed helpers sit over the raw Do
// interface, and a routed variant consults a cluster routing table to
// reach the right shard process with one Client per node. See README.md
// for the error model.
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

// Do sends one command and reads its reply; error replies like
// WRONGTYPE are the server's.
// Reply types: string (simple/bulk), int64, []interface{}, Nil error.
func (c *Client) Do(args ...string) (interface{}, error) {
	var reply [1]interface{}
	var err [1]error
	c.roundTrip([][]string{args}, reply[:], err[:])
	return reply[0], err[0]
}

// Pipeline sends multiple commands in one round trip and returns their
// replies in order.
func (c *Client) Pipeline(cmds [][]string) ([]interface{}, []error) {
	replies := make([]interface{}, len(cmds))
	errs := make([]error, len(cmds))
	if len(cmds) > 0 {
		c.roundTrip(cmds, replies, errs)
	}
	return replies, errs
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

// Set stores key=val with one SET.
func (c *Client) Set(key, val string) error {
	_, err := c.Do("SET", key, val)
	return err
}

// Get fetches key with one GET (Nil if absent). A key that holds a
// collection answers the server's WRONGTYPE error; MGet reads it as
// absent instead.
func (c *Client) Get(key string) (string, error) {
	v, err := c.Do("GET", key)
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
	if len(keys) == 0 {
		return 0, nil
	}
	v, err := c.Do(append([]string{"DEL"}, keys...)...)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("client: unexpected DEL reply %T", v)
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
