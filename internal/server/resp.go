// Package server implements TierBase's wire protocol front end: a
// Redis-compatible (RESP2) TCP server whose data nodes are engine shards
// fronted by elastic worker pools (paper §3: "Initially Redis-compatible
// ... TierBase clients, compatible with native Redis clients").
package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
)

// RESP2 protocol primitives — the zero-allocation hot path.
//
// Parsing: cmdReader owns a per-connection arena. Protocol lines are read
// with bufio.Reader.ReadSlice (aliasing the reader's internal buffer — no
// copy, no allocation); bulk payloads land in the arena, and the returned
// args alias arena memory. Both are valid ONLY until the next ReadCommand
// on the same connection, which is exactly the command's execution window:
// command execution is synchronous (the connection goroutine blocks until
// the shard worker finishes), so nothing downstream can observe a recycled
// buffer. Every layer below the server copies what it retains (the engine
// copies on Set, the LSM batch copies on Put), so aliasing is safe.
//
// Encoding: replies append into a per-connection output buffer with the
// append* helpers below (strconv.AppendInt-style), written to the socket
// in one syscall per pipeline window. No reply objects, no fmt.

var errProtocol = errors.New("resp: protocol error")

const (
	maxArgs    = 1024 * 1024
	maxBulkLen = 512 << 20
	// maxRetainedArena caps the arena (and line-accumulator) size kept
	// across commands, so one huge value doesn't pin its buffer forever.
	maxRetainedArena = 1 << 20
)

// cmdReader parses commands for one connection into reusable buffers.
type cmdReader struct {
	r     *bufio.Reader
	buf   []byte // arena holding the current command's bulk payloads
	args  [][]byte
	spans []span // arg offsets into buf (buf may reallocate while filling)
}

// span locates one argument inside the arena.
type span struct{ off, n int }

func newCmdReader(nc net.Conn) *cmdReader {
	return &cmdReader{r: bufio.NewReaderSize(nc, 16<<10)}
}

// Buffered reports bytes already read from the socket but not yet parsed
// (pipelined commands waiting).
func (c *cmdReader) Buffered() int { return c.r.Buffered() }

// ReadCommand parses one client command: a RESP array of bulk strings or
// an inline space-separated line. The returned args alias the reader's
// internal buffers and are valid only until the next ReadCommand.
func (c *cmdReader) ReadCommand() ([][]byte, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, errProtocol
	}
	c.args = c.args[:0]
	if cap(c.buf) > maxRetainedArena {
		c.buf = nil
	}
	c.buf = c.buf[:0]
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
			return nil, errProtocol
		}
		return c.args, nil
	}
	n := parseSize(line[1:])
	if n < 0 || n > maxArgs {
		return nil, errProtocol
	}
	for i := 0; i < n; i++ {
		hdr, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if len(hdr) < 2 || hdr[0] != '$' {
			return nil, errProtocol
		}
		blen := parseSize(hdr[1:])
		if blen < 0 || blen > maxBulkLen {
			return nil, errProtocol
		}
		off := len(c.buf)
		need := blen + 2 // payload + CRLF
		if cap(c.buf)-off < need {
			grown := make([]byte, off, off+need)
			copy(grown, c.buf)
			c.buf = grown
		}
		payload := c.buf[off : off+need]
		if _, err := io.ReadFull(c.r, payload); err != nil {
			return nil, err
		}
		if payload[blen] != '\r' || payload[blen+1] != '\n' {
			return nil, errProtocol
		}
		c.buf = c.buf[:off+blen] // CRLF stays out of the arena
		c.spans = append(c.spans, span{off, blen})
	}
	// Build args only after every payload landed: the arena may have
	// reallocated while filling, so earlier slices could point at a dead
	// backing array — the spans don't.
	for _, sp := range c.spans {
		c.args = append(c.args, c.buf[sp.off:sp.off+sp.n])
	}
	return c.args, nil
}

// readLine reads one CRLF-terminated line without the terminator. The
// result aliases the bufio buffer; a line longer than the buffer falls
// back to an allocating accumulator (cold path).
func (c *cmdReader) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		acc := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = c.r.ReadSlice('\n')
			acc = append(acc, line...)
		}
		line = acc
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errProtocol
	}
	return line[:len(line)-2], nil
}

// parseSize parses a non-negative decimal (RESP array/bulk headers),
// returning -1 on anything else. Manual loop: strconv.Atoi needs a string.
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
		if n > maxBulkLen {
			return -1
		}
	}
	return n
}

// --- reply encoders (append-style) ---

func appendSimple(out []byte, s string) []byte {
	out = append(out, '+')
	out = append(out, s...)
	return append(out, '\r', '\n')
}

func appendError(out []byte, msg string) []byte {
	out = append(out, "-ERR "...)
	out = append(out, msg...)
	return append(out, '\r', '\n')
}

// appendRawError writes an error reply whose first token is its own
// error class (MOVED, ASK, NOREPLICAS, ...) rather than the generic ERR
// prefix — what typed client-side error dispatch keys on.
func appendRawError(out []byte, msg string) []byte {
	out = append(out, '-')
	out = append(out, msg...)
	return append(out, '\r', '\n')
}

func appendInt(out []byte, v int64) []byte {
	out = append(out, ':')
	out = strconv.AppendInt(out, v, 10)
	return append(out, '\r', '\n')
}

func appendBulk(out, v []byte) []byte {
	if v == nil {
		return append(out, "$-1\r\n"...)
	}
	out = append(out, '$')
	out = strconv.AppendInt(out, int64(len(v)), 10)
	out = append(out, '\r', '\n')
	out = append(out, v...)
	return append(out, '\r', '\n')
}

func appendBulkString(out []byte, s string) []byte {
	out = append(out, '$')
	out = strconv.AppendInt(out, int64(len(s)), 10)
	out = append(out, '\r', '\n')
	out = append(out, s...)
	return append(out, '\r', '\n')
}

func appendArrayLen(out []byte, n int) []byte {
	out = append(out, '*')
	out = strconv.AppendInt(out, int64(n), 10)
	return append(out, '\r', '\n')
}
