package server

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadCommand drives the RESP command parser over arbitrary byte
// streams. The parser fronts every client socket, so it must never
// panic, never hand back an argument longer than the bulk limit, and —
// because args alias the parse arena — every returned arg must be
// readable in full. Errors are fine (malformed input is the point);
// crashes and unbounded allocations are not.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("SET key value\r\n"))
	f.Add([]byte("*1\r\n$-1\r\n"))
	f.Add([]byte("*999999999\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$100\r\nshort\r\n"))
	f.Add([]byte("\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &cmdReader{r: bufio.NewReaderSize(bytes.NewReader(data), 16<<10)}
		for i := 0; i < 64; i++ {
			args, err := cr.ReadCommand()
			if err != nil {
				return
			}
			if len(args) == 0 {
				continue // *0\r\n parses to zero args; dispatch rejects it
			}
			if len(args) > maxArgs {
				t.Fatalf("parser returned %d args, cap is %d", len(args), maxArgs)
			}
			sink := 0
			for _, a := range args {
				if len(a) > maxBulkLen {
					t.Fatalf("arg of %d bytes exceeds bulk limit", len(a))
				}
				for _, b := range a {
					sink += int(b) // touch every byte: args must be readable
				}
			}
			_ = sink
			var scratch [16]byte
			_ = lookupCommand(args[0], &scratch)
		}
	})
}

// FuzzDispatch feeds dispatch arbitrary argument vectors (the fuzz input
// split at zero bytes) on a cache-only server: whatever the arguments, one
// command gets exactly one well-formed RESP reply and nothing panics.
func FuzzDispatch(f *testing.F) {
	for _, seed := range []string{
		"FOO\r\n+OK", "EXISTS\x00a\x00b", "LPOP\x00k\x005", "EXPIRE\x00k\x0010000000000",
		"ZRANGE\x00k\x000\x00-1\x00junk", "SET\x00k\x00v", "GET\x00k", "MSET\x00a\x001\x00b",
		"MGET\x00a\x00b", "DEL\x00a\x00b", "INCRBY\x00n\x00x", "RPUSH\x00l\x00a\x00b", "LRANGE\x00l\x000\x00-1",
		"HSET\x00h\x00f\x00v", "HGETALL\x00h", "ZADD\x00z\x001.5\x00m", "INFO\x00server", "SYNC\x000\x00r1",
		"cluster\x00myid", "FLUSHALL", "", "\x00",
	} {
		f.Add([]byte(seed))
	}
	s, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		out := dispatchArgs(s, bytes.Split(data, []byte{0})...)
		if out == "" || !strings.ContainsRune("+-:$*", rune(out[0])) {
			t.Fatalf("reply %q does not start a RESP value", out)
		}
		br := bufio.NewReader(strings.NewReader(out))
		if _, err := readRawReply(br); err != nil {
			t.Fatalf("reply %q: %v", out, err)
		}
		if rest, _ := io.ReadAll(br); len(rest) > 0 {
			t.Fatalf("reply %q carries %d bytes past its first value", out, len(rest))
		}
	})
}
