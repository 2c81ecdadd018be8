package client

import (
	"bufio"
	"errors"
	"net"
	"sync"

	"tierbase/internal/resp"
)

// maxRetainedOut caps the write buffer kept across round trips, so one
// huge value doesn't pin its buffer forever.
const maxRetainedOut = 1 << 20

// ErrClosed is the sticky error installed by Close: calls made after (or
// racing) Close fail with it instead of hanging on a dead connection.
var ErrClosed = errors.New("client: closed")

// Client is a RESP client over one connection, safe for concurrent
// callers: mu is held for a whole round trip, so one call's commands go
// out in one write and its replies are read before the next call starts.
// Connection-level errors are sticky: the first one closes the socket,
// which fails a round trip in progress, and every later call fails fast
// with it until a new client is dialed.
type Client struct {
	conn net.Conn

	mu  sync.Mutex // held for a whole round trip
	r   *resp.Reader
	out []byte // the round trip being framed

	emu      sync.Mutex // guards err and closeErr; never held across I/O
	err      error      // sticky: first connection-level failure, or ErrClosed
	closeErr error      // the socket's Close result
}

func newClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		r:    resp.NewReader(bufio.NewReaderSize(conn, 64<<10), resp.MaxArgs, resp.MaxBulkLen),
	}
}

// Err reports the sticky connection error (nil while healthy). Once set
// the client is permanently broken; re-Dial to recover.
func (c *Client) Err() error {
	c.emu.Lock()
	defer c.emu.Unlock()
	return c.err
}

// roundTrip writes every command in one write, then reads one reply per
// command into replies and errs. A reply read before a connection failure
// stands; the commands after it fail with the sticky error.
func (c *Client) roundTrip(cmds [][]string, replies []interface{}, errs []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.Err()
	if err == nil {
		out := c.out[:0]
		for _, args := range cmds {
			out = resp.AppendCommand(out, args...)
		}
		if cap(out) <= maxRetainedOut {
			c.out = out
		} else {
			c.out = nil
		}
		if _, werr := c.conn.Write(out); werr != nil {
			err = c.fail(werr)
		}
	}
	for i := range cmds {
		if err == nil {
			var v interface{}
			if v, err = c.r.ReadReply(); err == nil {
				replies[i], errs[i] = replyResult(v)
				continue
			}
			err = c.fail(err)
		}
		errs[i] = err
	}
}

// fail installs the sticky error (first failure wins), closes the socket,
// which fails a round trip blocked on it, and returns the sticky error. A
// possibly-desynced stream is never reused.
func (c *Client) fail(cause error) error {
	// Transport-level failures become typed ConnErrors so routed callers
	// can classify them (refresh + retry); an explicit Close stays
	// ErrClosed.
	if cause != ErrClosed {
		var ce *ConnError
		if !errors.As(cause, &ce) {
			cause = &ConnError{Err: cause}
		}
	}
	c.emu.Lock()
	defer c.emu.Unlock()
	if c.err == nil {
		c.err = cause
		c.closeErr = c.conn.Close()
	}
	return c.err
}

// replyResult maps a decoded reply (resp.Reader.ReadReply) onto what a
// caller sees: the nil bulk is the Nil error, an error reply is a typed
// error, and an error element inside an array is the error of the whole
// array (its other elements were still consumed, so the stream stays in
// sync). Nil elements stay nil in their array.
func replyResult(v interface{}) (interface{}, error) {
	switch v := v.(type) {
	case nil:
		return nil, Nil
	case resp.Error:
		return nil, parseReplyError(string(v))
	case []interface{}:
		var firstErr error
		for i, e := range v {
			ev, err := replyResult(e)
			if err != nil && err != Nil && firstErr == nil {
				firstErr = err
			}
			v[i] = ev
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return v, nil
}
