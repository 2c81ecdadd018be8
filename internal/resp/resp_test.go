package resp

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func reader(in string, maxArgs, maxBulk int) *Reader {
	return NewReader(bufio.NewReaderSize(strings.NewReader(in), 16<<10), maxArgs, maxBulk)
}

// countingReader counts what a parser pulled from its source.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestLineWithoutNewlineIsRefused: a peer that never sends '\n' gets the
// protocol error once its line passes MaxLineLen, and the parser has by
// then read (and held) little more than that, not the whole megabyte.
func TestLineWithoutNewlineIsRefused(t *testing.T) {
	for name, read := range map[string]func(*Reader) error{
		"command": func(r *Reader) error { _, err := r.ReadCommand(); return err },
		"reply":   func(r *Reader) error { _, err := r.ReadReply(); return err },
	} {
		src := &countingReader{r: bytes.NewReader(bytes.Repeat([]byte("x"), 1<<20))}
		err := read(NewReader(bufio.NewReaderSize(src, 16<<10), MaxArgs, MaxBulkLen))
		if err != ErrProtocol {
			t.Errorf("%s: 1 MiB without a newline: err = %v, want ErrProtocol", name, err)
		}
		if src.n > 2*MaxLineLen {
			t.Errorf("%s: read %d bytes of a line capped at %d", name, src.n, MaxLineLen)
		}
	}
}

// TestReadReplyRefusesOversizedLengths: a length over the Reader's limits
// is the protocol error before a byte is allocated for it, for the bulk
// and the array header alike, at the top level and nested.
func TestReadReplyRefusesOversizedLengths(t *testing.T) {
	for _, in := range []string{
		"$2147483647\r\n",
		"$1025\r\n",
		"*2147483647\r\n",
		"*17\r\n",
		"*99999999999999999999\r\n", // overflows int
		"$-2\r\n",
		"*1\r\n$2147483647\r\n",
		strings.Repeat("*1\r\n", MaxReplyDepth+1) + ":1\r\n",
	} {
		grew := allocated(func() {
			if v, err := reader(in, 16, 1024).ReadReply(); err != ErrProtocol {
				t.Errorf("%.24q: got %v, %v; want ErrProtocol", in, v, err)
			}
		})
		if grew > 1<<20 {
			t.Errorf("%.24q: allocated %d bytes on the way to refusing it", in, grew)
		}
	}
	// A header within the limits whose elements never arrive costs what
	// arrived: the array is not sized from the header.
	grew := allocated(func() {
		if _, err := reader("*1048576\r\n", MaxArgs, MaxBulkLen).ReadReply(); err != io.EOF {
			t.Errorf("truncated array: %v, want io.EOF", err)
		}
	})
	if grew > 1<<20 {
		t.Errorf("a 10-byte array header allocated %d bytes", grew)
	}
}

// allocated reports the bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestReadReplyValues(t *testing.T) {
	in := "+OK\r\n-ERR no\r\n:-7\r\n$0\r\n\r\n$3\r\na\r\n\r\n$-1\r\n*-1\r\n*0\r\n" +
		"*4\r\n$1\r\nx\r\n$-1\r\n-WRONGTYPE k\r\n*2\r\n:1\r\n+y\r\n"
	want := []interface{}{
		"OK", Error("ERR no"), int64(-7), "", "a\r\n", nil, nil, []interface{}{},
		[]interface{}{"x", nil, Error("WRONGTYPE k"), []interface{}{int64(1), "y"}},
	}
	r := reader(in, MaxArgs, MaxBulkLen)
	for i, w := range want {
		got, err := r.ReadReply()
		if err != nil || !reflect.DeepEqual(got, w) {
			t.Fatalf("reply %d: got %#v, %v; want %#v", i, got, err, w)
		}
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("after the last reply: %v, want io.EOF", err)
	}
	for _, bad := range []string{"?\r\n", "\r\n", ":x\r\n", "$3\r\nabcd\r\n", "+OK\n", "$3\r\nab"} {
		if v, err := reader(bad, MaxArgs, MaxBulkLen).ReadReply(); err == nil {
			t.Errorf("%q parsed as %#v", bad, v)
		}
	}
}

// TestCommandRoundTrip: what AppendCommand frames, ReadCommand parses back,
// pipelined, and a command over the Reader's limits is refused.
func TestCommandRoundTrip(t *testing.T) {
	cmds := [][]string{{"PING"}, {"SET", "k", ""}, {"SET", "k", "a b\r\nc"}, {"MGET", "a", "b", "c"}}
	var wire []byte
	for _, c := range cmds {
		wire = AppendCommand(wire, c...)
	}
	r := reader(string(wire), 4, 16)
	for _, want := range cmds {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(args))
		for i, a := range args {
			got[i] = string(a)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	for _, over := range [][]string{{"A", "B", "C", "D", "E"}, {"SET", "k", strings.Repeat("v", 17)}} {
		if _, err := reader(string(AppendCommand(nil, over...)), 4, 16).ReadCommand(); err != ErrProtocol {
			t.Errorf("%d args over the limits: %v, want ErrProtocol", len(over), err)
		}
	}
}
