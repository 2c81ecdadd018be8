package replication

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeBytes(w *bufio.Writer, b []byte) error {
	if err := writeUvarint(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// WriteOp frames one op. The caller flushes.
func WriteOp(w *bufio.Writer, op Op) error {
	if err := w.WriteByte(frameOp); err != nil {
		return err
	}
	if err := writeUvarint(w, op.Seq); err != nil {
		return err
	}
	if err := w.WriteByte(byte(op.Kind)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(op.Key))); err != nil {
		return err
	}
	if _, err := w.WriteString(op.Key); err != nil {
		return err
	}
	if op.Kind == OpDel {
		return nil
	}
	return writeBytes(w, op.Val)
}

// WriteAck frames a cumulative acknowledgement. The caller flushes.
func WriteAck(w *bufio.Writer, seq uint64) error {
	if err := w.WriteByte(frameAck); err != nil {
		return err
	}
	return writeUvarint(w, seq)
}

// WritePing frames a keepalive carrying the master's current log head.
// The caller flushes.
func WritePing(w *bufio.Writer, seq uint64) error {
	if err := w.WriteByte(framePing); err != nil {
		return err
	}
	return writeUvarint(w, seq)
}

// WriteSnapEnd closes a full-sync snapshot; the replica resets its op
// log to seq and streams from there.
func WriteSnapEnd(w *bufio.Writer, seq uint64) error {
	if err := w.WriteByte(frameSnapEnd); err != nil {
		return err
	}
	return writeUvarint(w, seq)
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
