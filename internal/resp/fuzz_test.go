package resp

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// filler is an endless run of one byte with no newline in it.
type filler byte

func (f filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// stream is a fuzz input as a peer would send it: data, then fill%256Ki
// bytes of filler. The filler lets a few input bytes say "and then this line
// (or this bulk) goes on for longer than any limit" — a seed that long
// written out drops the fuzzer from ~20k executions a second to ~100.
func stream(data []byte, fill uint32) *bufio.Reader {
	tail := io.LimitReader(filler('x'), int64(fill%(256<<10)))
	return bufio.NewReaderSize(io.MultiReader(bytes.NewReader(data), tail), 16<<10)
}

// FuzzReadCommand drives the RESP command parser over arbitrary byte
// streams. The parser fronts every client socket, so it must never
// panic, never hand back an argument longer than the bulk limit, and —
// because args alias the parse arena — every returned arg must be
// readable in full. Errors are fine (malformed input is the point);
// crashes and unbounded allocations are not.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"), uint32(0))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"), uint32(0))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"), uint32(0))
	f.Add([]byte("PING\r\n"), uint32(0))
	f.Add([]byte("SET key value\r\n"), uint32(0))
	f.Add([]byte("*1\r\n$-1\r\n"), uint32(0))
	f.Add([]byte("*999999999\r\n"), uint32(0))
	f.Add([]byte("$5\r\nhello\r\n"), uint32(0))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$100\r\nshort\r\n"), uint32(0))
	f.Add([]byte("\r\n"), uint32(0))
	f.Add([]byte("GET "), uint32(MaxLineLen+1))     // a line that never ends
	f.Add([]byte("*1\r\n$1"), uint32(MaxLineLen+1)) // ... inside a command
	f.Fuzz(func(t *testing.T, data []byte, fill uint32) {
		// An inline command is bounded by its line, not by the array limits.
		const maxArgs, maxBulk = MaxLineLen, MaxLineLen
		cr := NewReader(stream(data, fill), maxArgs, maxBulk)
		for i := 0; i < 64; i++ {
			args, err := cr.ReadCommand()
			if err != nil {
				return
			}
			if len(args) > maxArgs {
				t.Fatalf("parser returned %d args, cap is %d", len(args), maxArgs)
			}
			sink := 0
			for _, a := range args {
				if len(a) > maxBulk {
					t.Fatalf("arg of %d bytes exceeds bulk limit", len(a))
				}
				for _, b := range a {
					sink += int(b) // touch every byte: args must be readable
				}
			}
			_ = sink
		}
	})
}

// FuzzReadReply drives the reply parser, which reads whatever a server (or
// whoever answers on its port) sends a client, the coordinator and a
// replica's applier: it must never panic, and nothing it returns may be
// larger than the Reader's limits whatever lengths the bytes claim.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+OK\r\n"), uint32(0))
	f.Add([]byte("-MOVED 7 127.0.0.1:7002\r\n"), uint32(0))
	f.Add([]byte(":-42\r\n"), uint32(0))
	f.Add([]byte("$5\r\nhello\r\n$-1\r\n"), uint32(0))
	f.Add([]byte("*3\r\n$1\r\na\r\n$-1\r\n*1\r\n:1\r\n"), uint32(0))
	f.Add([]byte("*-1\r\n*0\r\n"), uint32(0))
	f.Add([]byte("$2147483647\r\n"), uint32(0))
	f.Add([]byte("*2147483647\r\n"), uint32(0))
	f.Add([]byte("*99999999999999999999\r\n"), uint32(0))
	f.Add(bytes.Repeat([]byte("*1\r\n"), 4*MaxReplyDepth), uint32(0))
	f.Add([]byte("+"), uint32(MaxLineLen+1)) // a status line that never ends
	f.Add([]byte("*2\r\n-ERR "), uint32(MaxLineLen+1))
	f.Fuzz(func(t *testing.T, data []byte, fill uint32) {
		const maxArgs, maxBulk = 64, MaxLineLen // a simple string is bounded by its line
		cr := NewReader(stream(data, fill), maxArgs, maxBulk)
		var check func(v interface{}, depth int)
		check = func(v interface{}, depth int) {
			switch v := v.(type) {
			case nil, int64:
			case string:
				if len(v) > maxBulk {
					t.Fatalf("string of %d bytes exceeds the bulk limit", len(v))
				}
			case Error:
				if len(v) > MaxLineLen {
					t.Fatalf("error of %d bytes exceeds the line limit", len(v))
				}
			case []interface{}:
				if len(v) > maxArgs {
					t.Fatalf("array of %d elements, cap is %d", len(v), maxArgs)
				}
				if depth >= MaxReplyDepth {
					t.Fatalf("array nested %d deep", depth+1)
				}
				for _, e := range v {
					check(e, depth+1)
				}
			default:
				t.Fatalf("reply of type %T", v)
			}
		}
		for i := 0; i < 64; i++ {
			v, err := cr.ReadReply()
			if err != nil {
				return
			}
			check(v, 0)
		}
	})
}
