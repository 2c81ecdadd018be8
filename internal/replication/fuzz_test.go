package replication

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"
)

// appendFrame appends f's frame with the Append* function of its type.
func appendFrame(dst []byte, f Frame) []byte {
	switch f.Type {
	case frameOp:
		return AppendOp(dst, f.Op)
	case frameAck:
		return AppendAck(dst, f.Seq)
	case framePing:
		return AppendPing(dst, f.Seq)
	default:
		return AppendSnapEnd(dst, f.Seq)
	}
}

// FuzzReadFrame drives the replication frame decoder, which reads a
// master's socket on every replica and every replica's on its master, over
// arbitrary bytes. It must not panic; what it decodes must be bytes that
// arrived (a length in a header allocates nothing by itself); a stream that
// ends inside a frame is io.ErrUnexpectedEOF and one that ends between
// frames is io.EOF; and every frame it yields, framed again by its Append*
// function, reads back equal.
func FuzzReadFrame(f *testing.F) {
	var seed []byte
	for _, fr := range []Frame{
		{Type: frameOp, Op: Op{Kind: OpFlushAll, Val: []byte{}}}, // a full-sync snapshot
		{Type: frameOp, Op: Op{Kind: OpSet, Key: "s1", Val: []byte("raw")}},
		{Type: frameOp, Op: Op{Kind: OpSetEncoded, Key: "s2", Val: []byte{0xFF, 9}}},
		{Type: frameOp, Op: Op{Kind: OpExpire, Key: "s1", Val: []byte("1700000000000000000")}},
		{Type: frameSnapEnd, Seq: 3},
		{Type: frameOp, Op: Op{Seq: 4, Kind: OpSet, Key: "k", Val: []byte{}}},
		{Type: frameOp, Op: Op{Seq: 5, Kind: OpDel, Key: "gone"}},
		{Type: frameOp, Op: Op{Seq: 1 << 40, Kind: OpExpire, Key: "k", Val: []byte("1700000000000000000")}},
		{Type: framePing, Seq: 5},
		{Type: frameAck, Seq: 5},
	} {
		seed = appendFrame(seed, fr)
		f.Add(bytes.Clone(seed)) // each seed is the stream so far
	}
	f.Add([]byte{frameOp, 1, byte(OpSet), 0xFF, 0xFF, 0xFF, 0xFF, 0x03})                // a 1 GiB key, none of it sent
	f.Add([]byte{frameOp, 0, byte(OpSetEncoded), 1, 'k', 0x80, 0x80, 0x80, 0x80, 0x08}) // a 2 GiB value
	f.Add([]byte{frameAck, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{'?'})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		for {
			start := len(data) - src.Len() - r.Buffered()
			fr, err := ReadFrame(r)
			if err != nil {
				if start == len(data) && err != io.EOF {
					t.Fatalf("stream ended between frames: %v, want io.EOF", err)
				}
				return
			}
			end := len(data) - src.Len() - r.Buffered()
			if n := len(fr.Op.Key) + len(fr.Op.Val); n > end-start {
				t.Fatalf("a %d-byte frame decoded to %d bytes of keys and values", end-start, n)
			}
			for cut := start + 1; cut < end && end-start <= 1<<10; cut++ {
				if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(data[start:cut]))); err != io.ErrUnexpectedEOF {
					t.Fatalf("frame torn after %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut-start, end-start, err)
				}
			}
			again := appendFrame(nil, fr)
			back, err := ReadFrame(bufio.NewReader(bytes.NewReader(again)))
			if err != nil || !reflect.DeepEqual(back, fr) {
				t.Fatalf("frame %+v read back as %+v, %v", fr, back, err)
			}
		}
	})
}
