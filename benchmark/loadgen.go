package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// client is one RESP connection. One writer and one reader goroutine share
// it during a phase: requests go out FIFO-pipelined and replies are matched
// to them in order.
type client struct {
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func dial(addr string) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *client) close() { c.nc.Close() }

var errRefused = errors.New("error reply")

// readReply reads one reply. A bulk payload aliases the read buffer and is
// valid until the next call; a nil bulk returns (nil, nil). Error replies
// come back as errRefused wrapping the server's text.
func (c *client) readReply() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 3 {
		return nil, fmt.Errorf("short reply line %q", line)
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+', ':':
		return body, nil
	case '-':
		return nil, fmt.Errorf("%w: %s", errRefused, body)
	case '$':
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return nil, fmt.Errorf("bad bulk length %q", body)
		}
		if n < 0 {
			return nil, nil
		}
		if n+2 > c.br.Size() {
			buf := make([]byte, n+2)
			if _, err := io.ReadFull(c.br, buf); err != nil {
				return nil, err
			}
			return buf[:n], nil
		}
		buf, err := c.br.Peek(n + 2)
		if err != nil {
			return nil, err
		}
		c.br.Discard(n + 2)
		return buf[:n:n], nil
	}
	return nil, fmt.Errorf("unexpected reply type %q", line[0])
}

// do sends one command and waits for its reply (control traffic only).
func (c *client) do(args ...string) (string, error) {
	c.wbuf = appendArrayHeader(c.wbuf[:0], len(args))
	for _, a := range args {
		c.wbuf = appendBulk(c.wbuf, []byte(a))
	}
	c.nc.SetDeadline(time.Now().Add(10 * time.Second))
	defer c.nc.SetDeadline(time.Time{})
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return "", err
	}
	b, err := c.readReply()
	return string(b), err
}

// sample is one correctly answered request.
type sample struct {
	due  time.Duration // offset from phase start: Poisson due time (paced) or send time (closed)
	lat  time.Duration // reply time minus due
	kind uint8
}

// phaseResult is what one connection measured in one phase.
type phaseResult struct {
	attempted int64
	failed    int64
	samples   []sample
	late      []time.Duration // paced: send time minus due time
	errs      []string        // first few failures, for the report
}

func (r *phaseResult) fail(format string, a ...any) {
	r.failed++
	if len(r.errs) < 3 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

// add folds another result of the same connection into r.
func (r *phaseResult) add(o *phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.samples = append(r.samples, o.samples...)
	r.errs = append(r.errs, o.errs...)
}

// phase describes one timed interval of load on one connection.
type phase struct {
	dur time.Duration
	// paced selects the open loop: requests leave at their Poisson due
	// times and are timed from them; one that finds window requests
	// outstanding is dropped as failed. Otherwise the loop is closed: window
	// requests stay in flight and the next leaves when a reply returns.
	paced  bool
	window int
	// onSend and onReply bracket each request of a depth-1 traced run.
	onSend  func(o op)
	onReply func()
}

type pendingOp struct {
	op
	due time.Duration
}

// run drives one phase on one connection and returns when every request has
// been answered, or two seconds after the phase ended.
func (c *client) run(st *opStream, arr *arrivals, ph phase) *phaseResult {
	res := &phaseResult{}
	// A slot is taken per request sent and returned per reply read, so pend
	// never holds more than window entries and sends to it never block.
	pend := make(chan pendingOp, ph.window)
	slots := make(chan struct{}, ph.window)
	for i := 0; i < ph.window; i++ {
		slots <- struct{}{}
	}
	dead := make(chan struct{}) // closed by the reader when the connection fails
	start := time.Now()

	var rd phaseResult // the reader's share, merged after it exits
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var want []byte
		for p := range pend {
			reply, err := c.readReply()
			if err != nil && !errors.Is(err, errRefused) {
				rd.fail("connection: %v", err)
				close(dead)
				for range pend { // the writer closes pend when it stops
					rd.failed++
				}
				return
			}
			at := time.Since(start)
			if ph.onReply != nil {
				ph.onReply()
			}
			slots <- struct{}{}
			switch {
			case err != nil:
				rd.fail("key %d: %v", p.key, err)
			case p.kind == opSet:
				if string(reply) != "OK" {
					rd.fail("SET key %d: reply %q", p.key, reply)
					continue
				}
				rd.samples = append(rd.samples, sample{p.due, at - p.due, p.kind})
			default:
				if !st.spec.checkValue(p.key, p.ver, reply, &want) {
					rd.fail("GET key %d: want version %d, got %s", p.key, p.ver, st.spec.describeValue(reply))
					continue
				}
				rd.samples = append(rd.samples, sample{p.due, at - p.due, p.kind})
			}
		}
	}()

	var scratch []byte
	c.wbuf = c.wbuf[:0]
	flush := func() bool {
		if len(c.wbuf) == 0 {
			return true
		}
		_, err := c.nc.Write(c.wbuf)
		c.wbuf = c.wbuf[:0]
		return err == nil
	}
writer:
	for {
		now := time.Since(start)
		if now >= ph.dur {
			break
		}
		due := now
		if ph.paced {
			due = arr.due
			if due >= ph.dur {
				break
			}
			if due > now {
				if !flush() {
					break
				}
				sleepFor(due - now)
				continue
			}
			arr.advance()
			res.attempted++
			select {
			case <-slots:
			default:
				res.fail("dropped: %d requests outstanding", ph.window)
				continue
			}
			res.late = append(res.late, now-due)
		} else {
			select {
			case <-slots:
			default: // window full: send what is buffered, then wait for a reply
				if !flush() {
					break writer
				}
				select {
				case <-slots:
				case <-dead:
					break writer
				}
				due = time.Since(start)
			}
			res.attempted++
		}
		o := st.next()
		if ph.onSend != nil {
			ph.onSend(o)
		}
		c.wbuf = st.spec.appendOp(c.wbuf, o, &scratch)
		pend <- pendingOp{op: o, due: due}
		if len(c.wbuf) >= 16<<10 && !flush() {
			break
		}
	}
	flush()
	c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	close(pend)
	wg.Wait()
	c.nc.SetReadDeadline(time.Time{})
	res.failed += rd.failed
	res.samples = rd.samples
	res.errs = append(res.errs, rd.errs...)
	return res
}

// prefill writes version 0 of the keys lo, lo+stride, ... below s.keys with
// MSET commands of 256 pairs, four in flight.
func (c *client) prefill(s spec, lo, stride int) error {
	const pairs, window = 256, 4
	errc := make(chan error, 1)
	sent := make(chan struct{}, window)
	go func() {
		for range sent {
			if _, err := c.readReply(); err != nil {
				errc <- err
				for range sent {
				}
				return
			}
		}
		errc <- nil
	}()
	var key, val []byte
	var werr error
	for k := lo; k < s.keys && werr == nil; {
		n := min(pairs, (s.keys-k+stride-1)/stride)
		c.wbuf = appendArrayHeader(c.wbuf[:0], 1+2*n)
		c.wbuf = appendBulk(c.wbuf, []byte("MSET"))
		for i := 0; i < n; i, k = i+1, k+stride {
			key = appendKey(key[:0], uint32(k))
			val = s.appendValue(val[:0], uint32(k), 0)
			c.wbuf = appendBulk(appendBulk(c.wbuf, key), val)
		}
		sent <- struct{}{}
		_, werr = c.nc.Write(c.wbuf)
	}
	close(sent)
	if err := <-errc; err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	if werr != nil {
		return fmt.Errorf("prefill: %w", werr)
	}
	return nil
}
