package replication

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
)

// Wire framing for the network leg of replication. After the RESP
// handshake (`SYNC <lastApplied> <nodeID>` answered by `+CONTINUE` or
// `+FULLSYNC`), the connection switches to these length-prefixed binary
// frames: master→replica carries ops, replica→master carries cumulative
// acks. Integers are uvarints; keys and values are length-prefixed byte
// strings.
//
//	op      : 'o' seq kind klen key [vlen val]   (val omitted for OpDel)
//	ack     : 'a' seq
//	ping    : 'p' seq   (master keepalive; seq = current log head. The
//	                     replica answers with a cumulative ack, so an idle
//	                     link still proves liveness both ways and
//	                     refreshes read deadlines.)
//	snap-end: 'e' seq   (replica resets its log to seq)
//
// A full-sync snapshot is ops too: after +FULLSYNC the master sends
// Seq-0 op frames (one OpFlushAll, then the keyspace as sets and
// expires) and closes the snapshot with snap-end. Every sequenced op
// comes after it.
const (
	frameOp      = 'o'
	frameAck     = 'a'
	framePing    = 'p'
	frameSnapEnd = 'e'
)

// maxFrameLen bounds a single key or value length on the read side so a
// corrupt stream fails fast. readChunk is how much of one readBytes
// allocates ahead of the bytes arriving: a length costs its sender five
// bytes, so the header alone must not buy a gigabyte.
const (
	maxFrameLen = 1 << 30
	readChunk   = 64 << 10
)

// Frame is one decoded replication frame.
type Frame struct {
	Type byte
	Op   Op     // frameOp
	Seq  uint64 // frameAck, framePing, frameSnapEnd
}

// AppendOp appends op's frame to dst.
func AppendOp(dst []byte, op Op) []byte { return appendOp(dst, op.Seq, op.Kind, op.Key, op.Val) }

// AppendEntry appends a snapshot's frames for one key: the SET, or the
// SET-ENCODED of a typed collection blob, storing val at key, then, if at
// is not 0, the EXPIRE that sets its absolute UnixNano deadline. The
// frames are SetOp's and ExpireOp's, with Seq 0.
func AppendEntry(dst, key, val []byte, encoded bool, at int64) []byte {
	kind := OpSet
	if encoded {
		kind = OpSetEncoded
	}
	dst = appendOp(dst, 0, kind, key, val)
	if at == 0 {
		return dst
	}
	var text [20]byte
	return appendOp(dst, 0, OpExpire, key, strconv.AppendInt(text[:0], at, 10))
}

// appendOp appends the frame of an op, its key either a string or bytes.
func appendOp[K string | []byte](dst []byte, seq uint64, kind OpKind, key K, val []byte) []byte {
	dst = binary.AppendUvarint(append(dst, frameOp), seq)
	dst = binary.AppendUvarint(append(dst, byte(kind)), uint64(len(key)))
	dst = append(dst, key...)
	if kind == OpDel {
		return dst
	}
	return append(binary.AppendUvarint(dst, uint64(len(val))), val...)
}

// AppendAck appends a cumulative acknowledgement.
func AppendAck(dst []byte, seq uint64) []byte { return appendSeq(dst, frameAck, seq) }

// AppendPing appends a keepalive carrying the master's current log head.
func AppendPing(dst []byte, seq uint64) []byte { return appendSeq(dst, framePing, seq) }

// AppendSnapEnd appends the frame that closes a full-sync snapshot; the
// replica resets its op log to seq and streams from there.
func AppendSnapEnd(dst []byte, seq uint64) []byte { return appendSeq(dst, frameSnapEnd, seq) }

func appendSeq(dst []byte, t byte, seq uint64) []byte {
	return binary.AppendUvarint(append(dst, t), seq)
}

func readLen(r *bufio.Reader) (int, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if v > maxFrameLen {
		return 0, fmt.Errorf("replication: frame length %d exceeds limit", v)
	}
	return int(v), nil
}

func readBytes(r *bufio.Reader) ([]byte, error) {
	n, err := readLen(r)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, min(n, readChunk))
	for len(b) < n {
		m := min(n-len(b), readChunk)
		b = append(b, make([]byte, m)...)
		if _, err := io.ReadFull(r, b[len(b)-m:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ReadFrame decodes the next frame. Byte slices in the result are
// freshly allocated (safe to retain). io.EOF surfaces unchanged when the
// stream ends cleanly between frames.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	t, err := r.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: t}
	switch t {
	case frameOp:
		seq, err := binary.ReadUvarint(r)
		if err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		kind, err := r.ReadByte()
		if err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		key, err := readBytes(r)
		if err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		f.Op = Op{Seq: seq, Kind: OpKind(kind), Key: string(key)}
		if OpKind(kind) != OpDel {
			val, err := readBytes(r)
			if err != nil {
				return Frame{}, unexpectedEOF(err)
			}
			f.Op.Val = val
		}
	case frameAck, framePing, frameSnapEnd:
		seq, err := binary.ReadUvarint(r)
		if err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		f.Seq = seq
	default:
		return Frame{}, fmt.Errorf("replication: unknown frame type %q", t)
	}
	return f, nil
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF so callers
// can distinguish a clean between-frames close from a torn frame.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Frame type predicates (exported for the server's handshake loops).

// IsOp reports an op frame.
func (f Frame) IsOp() bool { return f.Type == frameOp }

// IsAck reports an ack frame.
func (f Frame) IsAck() bool { return f.Type == frameAck }

// IsPing reports a keepalive frame.
func (f Frame) IsPing() bool { return f.Type == framePing }

// IsSnapEnd reports a snapshot-end frame.
func (f Frame) IsSnapEnd() bool { return f.Type == frameSnapEnd }
