// Package resp is TierBase's one RESP2 codec: the command parser and
// reply encoders a server runs (data node, coordinator), and the command
// encoder and reply parser a client runs (internal/client, the
// coordinator's promotion push, the replication applier's SYNC handshake).
// It imports nothing of TierBase, so every binary can call it.
//
// Parsing: a Reader owns a per-connection arena. Protocol lines are read
// with bufio.Reader.ReadSlice (aliasing the reader's internal buffer — no
// copy, no allocation); bulk payloads land in the arena, and the args
// ReadCommand returns alias arena memory. Both are valid ONLY until the
// next read on the same Reader, which is exactly the command's execution
// window: command execution is synchronous (the connection goroutine blocks
// until the shard worker finishes), so nothing downstream can observe a
// recycled buffer. Every layer below the server copies what it retains (the
// engine copies on Set, the LSM batch copies on Put), so aliasing is safe.
// ReadReply copies what it returns.
//
// Encoding: the Append* helpers append to a caller-owned buffer
// (strconv.AppendInt-style), written to the socket in one syscall per
// pipeline window. No reply objects, no fmt.
//
// Limits: every length a peer names is checked before anything is
// allocated for it. A Reader refuses more than maxArgs elements in one
// array and more than maxBulk bytes in one bulk string (constructor
// arguments, at most MaxArgs and MaxBulkLen), a protocol or inline line
// longer than MaxLineLen, and replies nested deeper than MaxReplyDepth.
package resp

import (
	"bufio"
	"errors"
	"io"
	"strconv"
)

// ErrProtocol is what a Reader returns for bytes that are not RESP, or
// that name a length over the Reader's limits. The stream cannot be
// resynchronised after it: close the connection.
var ErrProtocol = errors.New("resp: protocol error")

const (
	// MaxArgs and MaxBulkLen are the limits of a data node and of its
	// clients, and the most any Reader accepts.
	MaxArgs    = 1024 * 1024
	MaxBulkLen = 512 << 20
	// MaxLineLen caps a protocol line (a header, a simple string, an error,
	// an inline command). Bulk payloads do not pass through the line reader,
	// so no legitimate line comes near it; a peer that never sends '\n'
	// does.
	MaxLineLen = 64 << 10
	// MaxReplyDepth caps how deeply arrays nest in one reply.
	MaxReplyDepth = 32
	// maxRetainedArena caps the arena size kept across reads, so one huge
	// value doesn't pin its buffer forever.
	maxRetainedArena = 1 << 20
)

// Error is an error reply as ReadReply returns it: the line after the '-'.
type Error string

// Reader parses commands or replies for one connection into reusable
// buffers.
type Reader struct {
	r       *bufio.Reader
	maxArgs int
	maxBulk int
	buf     []byte // arena holding the current command's bulk payloads
	args    [][]byte
	spans   []span // arg offsets into buf (buf may reallocate while filling)
}

// span locates one argument inside the arena.
type span struct{ off, n int }

// NewReader reads RESP from r, refusing arrays of more than maxArgs
// elements and bulk strings of more than maxBulk bytes. The caller may read
// r itself between values (the applier does, after its SYNC handshake): a
// Reader buffers nothing of its own.
func NewReader(r *bufio.Reader, maxArgs, maxBulk int) *Reader {
	return &Reader{r: r, maxArgs: maxArgs, maxBulk: maxBulk}
}

// Buffered reports bytes already read from the socket but not yet parsed
// (pipelined commands waiting).
func (c *Reader) Buffered() int { return c.r.Buffered() }

// ReadCommand parses one client command: a RESP array of bulk strings or
// an inline space-separated line. The returned args alias the reader's
// internal buffers and are valid only until the next ReadCommand.
func (c *Reader) ReadCommand() ([][]byte, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, ErrProtocol
	}
	c.args = c.args[:0]
	c.resetArena()
	c.spans = c.spans[:0]
	if line[0] != '*' {
		// Inline command: one line, so the args may alias the bufio buffer
		// directly (nothing else is read before the caller is done).
		start := -1
		for i := 0; i <= len(line); i++ {
			if i < len(line) && line[i] != ' ' {
				if start < 0 {
					start = i
				}
				continue
			}
			if start >= 0 {
				c.args = append(c.args, line[start:i])
				start = -1
			}
		}
		if len(c.args) == 0 {
			return nil, ErrProtocol
		}
		return c.args, nil
	}
	n := parseSize(line[1:])
	if n < 0 || n > c.maxArgs {
		return nil, ErrProtocol
	}
	for i := 0; i < n; i++ {
		hdr, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if len(hdr) < 2 || hdr[0] != '$' {
			return nil, ErrProtocol
		}
		off := len(c.buf)
		if err := c.readBulk(parseSize(hdr[1:])); err != nil {
			return nil, err
		}
		c.spans = append(c.spans, span{off, len(c.buf) - off})
	}
	// Build args only after every payload landed: the arena may have
	// reallocated while filling, so earlier slices could point at a dead
	// backing array — the spans don't.
	for _, sp := range c.spans {
		c.args = append(c.args, c.buf[sp.off:sp.off+sp.n])
	}
	return c.args, nil
}

// ReadReply parses one server reply: a string (simple or bulk), an int64,
// an Error, a []interface{} of these, or nil (the nil bulk and the nil
// array). The value shares no memory with the Reader. An error means the
// stream is broken or out of sync and the connection must go; an Error
// value is an answer like any other.
func (c *Reader) ReadReply() (interface{}, error) {
	return c.readReply(0)
}

func (c *Reader) readReply(depth int) (interface{}, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, ErrProtocol
	}
	body := line[1:]
	switch line[0] {
	case '+':
		return string(body), nil
	case '-':
		return Error(body), nil
	case ':':
		n, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil {
			return nil, ErrProtocol
		}
		return n, nil
	case '$':
		if string(body) == "-1" {
			return nil, nil
		}
		c.resetArena()
		if err := c.readBulk(parseSize(body)); err != nil {
			return nil, err
		}
		return string(c.buf), nil
	case '*':
		if string(body) == "-1" {
			return nil, nil
		}
		n := parseSize(body)
		if n < 0 || n > c.maxArgs || depth >= MaxReplyDepth {
			return nil, ErrProtocol
		}
		// Sized by what arrives, not by what the header promises: a header
		// costs its sender a dozen bytes.
		out := make([]interface{}, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			v, err := c.readReply(depth + 1)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, ErrProtocol
}

// resetArena empties the arena, dropping one grown past maxRetainedArena.
func (c *Reader) resetArena() {
	if cap(c.buf) > maxRetainedArena {
		c.buf = nil
	}
	c.buf = c.buf[:0]
}

// readBulk appends an n-byte bulk payload to the arena and consumes the
// CRLF that ends it. n is a parseSize result: negative means malformed.
func (c *Reader) readBulk(n int) error {
	if n < 0 || n > c.maxBulk {
		return ErrProtocol
	}
	off := len(c.buf)
	need := n + 2 // payload + CRLF
	if cap(c.buf)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, c.buf)
		c.buf = grown
	}
	payload := c.buf[off : off+need]
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return err
	}
	if payload[n] != '\r' || payload[n+1] != '\n' {
		return ErrProtocol
	}
	c.buf = c.buf[:off+n] // CRLF stays out of the arena
	return nil
}

// readLine reads one CRLF-terminated line without the terminator. The
// result aliases the bufio buffer; a line longer than the buffer falls
// back to an allocating accumulator (cold path) that stops at MaxLineLen.
func (c *Reader) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		acc := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			if len(acc) > MaxLineLen {
				return nil, ErrProtocol
			}
			line, err = c.r.ReadSlice('\n')
			acc = append(acc, line...)
		}
		line = acc
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' || len(line) > MaxLineLen {
		return nil, ErrProtocol
	}
	return line[:len(line)-2], nil
}

// parseSize parses a non-negative decimal (RESP array/bulk headers),
// returning -1 on anything else or on a value over MaxBulkLen. Manual
// loop: strconv.Atoi needs a string.
func parseSize(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return -1
		}
		n = n*10 + int(d-'0')
		if n > MaxBulkLen {
			return -1
		}
	}
	return n
}

// --- command encoder (append-style) ---

// AppendCommand appends one command as an array of bulk strings.
func AppendCommand(out []byte, args ...string) []byte {
	out = AppendArrayLen(out, len(args))
	for _, a := range args {
		out = AppendBulkString(out, a)
	}
	return out
}

// --- reply encoders (append-style) ---

// AppendSimple appends the simple string +s.
func AppendSimple(out []byte, s string) []byte {
	out = append(out, '+')
	out = append(out, s...)
	return append(out, '\r', '\n')
}

// AppendError appends the error reply -ERR msg.
func AppendError(out []byte, msg string) []byte {
	out = append(out, "-ERR "...)
	out = append(out, msg...)
	return append(out, '\r', '\n')
}

// AppendRawError writes an error reply whose first token is its own
// error class (MOVED, ASK, NOREPLICAS, ...) rather than the generic ERR
// prefix — what typed client-side error dispatch keys on.
func AppendRawError(out []byte, msg string) []byte {
	out = append(out, '-')
	out = append(out, msg...)
	return append(out, '\r', '\n')
}

// AppendInt appends the integer reply :v.
func AppendInt(out []byte, v int64) []byte {
	out = append(out, ':')
	out = strconv.AppendInt(out, v, 10)
	return append(out, '\r', '\n')
}

// AppendBulk appends v as a bulk string; nil is the nil bulk ($-1), which
// an empty non-nil v is not.
func AppendBulk(out, v []byte) []byte {
	if v == nil {
		return append(out, "$-1\r\n"...)
	}
	out = append(out, '$')
	out = strconv.AppendInt(out, int64(len(v)), 10)
	out = append(out, '\r', '\n')
	out = append(out, v...)
	return append(out, '\r', '\n')
}

// AppendBulkString appends s as a bulk string.
func AppendBulkString(out []byte, s string) []byte {
	out = append(out, '$')
	out = strconv.AppendInt(out, int64(len(s)), 10)
	out = append(out, '\r', '\n')
	out = append(out, s...)
	return append(out, '\r', '\n')
}

// AppendArrayLen appends the header of an n-element array; the caller
// appends the elements.
func AppendArrayLen(out []byte, n int) []byte {
	out = append(out, '*')
	out = strconv.AppendInt(out, int64(n), 10)
	return append(out, '\r', '\n')
}
