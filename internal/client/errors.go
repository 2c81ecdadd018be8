package client

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Typed reply and transport errors. The cluster-aware client stack
// (Routed, NewCluster) dispatches on these with errors.As instead of
// string-matching reply text.

// MovedError is a server's permanent redirect: the key's hash slot is
// owned by another node (a replica rejecting a write, or a node that
// lost the slot after failover/resharding). Clients should refresh
// their routing table and retry against Addr.
type MovedError struct {
	Slot int
	Addr string
}

// Error renders the wire form.
func (e *MovedError) Error() string {
	return fmt.Sprintf("MOVED %d %s", e.Slot, e.Addr)
}

// ConnError wraps transport-level failures (dial errors, sticky broken
// connections, torn replies) so callers can distinguish "the node is
// unreachable — refresh routing and retry elsewhere" from a server
// rejecting the command. Unwrap exposes the cause.
type ConnError struct {
	Err error
}

// Error reports the cause.
func (e *ConnError) Error() string { return "client: connection failure: " + e.Err.Error() }

// Unwrap exposes the cause for errors.Is/As.
func (e *ConnError) Unwrap() error { return e.Err }

// OverloadedError is a server shedding writes at its memory high
// watermark (-OVERLOADED). The condition is retryable on the SAME node:
// the server keeps serving reads and recovers once memory drains below
// its low watermark, so the routed client backs off and retries in
// place instead of refreshing topology.
type OverloadedError struct {
	Msg string
}

// Error reports the server's message.
func (e *OverloadedError) Error() string { return e.Msg }

// MaxConnError is a server refusing a connection at its admission cap
// (-MAXCONN). Retryable after connections drain; unlike OverloadedError
// it arrives during the handshake, before any command ran.
type MaxConnError struct {
	Msg string
}

// Error reports the server's message.
func (e *MaxConnError) Error() string { return e.Msg }

// parseReplyError turns a RESP error line body (without the leading '-')
// into a typed error when it carries routing or overload semantics, or a
// plain error otherwise.
func parseReplyError(body string) error {
	if slot, addr, ok := parseRedirect(body, "MOVED "); ok {
		return &MovedError{Slot: slot, Addr: addr}
	}
	if strings.HasPrefix(body, "OVERLOADED") {
		return &OverloadedError{Msg: body}
	}
	if strings.HasPrefix(body, "MAXCONN") {
		return &MaxConnError{Msg: body}
	}
	return errors.New(body)
}

func parseRedirect(body, prefix string) (slot int, addr string, ok bool) {
	if !strings.HasPrefix(body, prefix) {
		return 0, "", false
	}
	rest := strings.TrimPrefix(body, prefix)
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return 0, "", false
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, "", false
	}
	return n, fields[1], true
}

// isTransient reports whether err means "this node, or the path to it,
// failed" — the class of error a routed client answers by refreshing
// its table and retrying, rather than surfacing.
func isTransient(err error) bool {
	var ce *ConnError
	return errors.As(err, &ce)
}
