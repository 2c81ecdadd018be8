package server

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

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
