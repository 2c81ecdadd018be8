package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Deflate is the Zstandard stand-in: stdlib DEFLATE, optionally with a
// pre-trained preset dictionary. With pretrained=false it corresponds to
// the paper's Zstd-b (online analysis only); with pretrained=true and a
// Train call, to Zstd-d.
type Deflate struct {
	level      int
	pretrained bool

	mu   sync.RWMutex
	dict []byte

	wpool sync.Pool // *flate.Writer, built lazily per current dict
	wgen  int       // bumped on retrain to invalidate pooled writers
}

// NewDeflate creates a DEFLATE compressor at level (1..9, 0 = 6).
func NewDeflate(level int, pretrained bool) *Deflate {
	if level == 0 {
		level = 6
	}
	if level < flate.HuffmanOnly {
		level = flate.HuffmanOnly
	}
	if level > flate.BestCompression {
		level = flate.BestCompression
	}
	return &Deflate{level: level, pretrained: pretrained}
}

// Name implements Compressor.
func (d *Deflate) Name() string {
	if d.pretrained {
		return "deflate-dict"
	}
	return "deflate"
}

// Train implements Compressor: builds the preset dictionary. For the
// non-pretrained variant it is a no-op, matching Zstd-b.
func (d *Deflate) Train(samples [][]byte) error {
	if !d.pretrained {
		return nil
	}
	dict := TrainDictionary(samples, 8<<10)
	d.mu.Lock()
	d.dict = dict
	d.wgen++
	d.wpool = sync.Pool{} // drop writers bound to the old dictionary
	d.mu.Unlock()
	return nil
}

type pooledWriter struct {
	w   *flate.Writer
	gen int
}

// Compress implements Compressor: the DEFLATE stream behind a uvarint of
// its length, so that the encoding delimits itself (Len).
func (d *Deflate) Compress(src []byte) []byte {
	out := d.stream(src, binary.MaxVarintLen64)
	var frame [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(frame[:], uint64(len(out)-len(frame)))
	start := len(frame) - w
	copy(out[start:], frame[:w])
	return out[start:]
}

// stream returns src's DEFLATE stream, unframed, after pad (at most
// binary.MaxVarintLen64) bytes of room for a frame.
func (d *Deflate) stream(src []byte, pad int) []byte {
	d.mu.RLock()
	dict := d.dict
	gen := d.wgen
	d.mu.RUnlock()

	var buf bytes.Buffer
	buf.Grow(pad + len(src)/2 + 16)
	var room [binary.MaxVarintLen64]byte
	buf.Write(room[:pad])
	var fw *flate.Writer
	if pw, ok := d.wpool.Get().(*pooledWriter); ok && pw.gen == gen {
		fw = pw.w
		fw.Reset(&buf)
	} else {
		var err error
		if len(dict) > 0 {
			fw, err = flate.NewWriterDict(&buf, d.level, dict)
		} else {
			fw, err = flate.NewWriter(&buf, d.level)
		}
		if err != nil {
			// Level is validated in NewDeflate; this cannot happen.
			panic(fmt.Sprintf("compress: flate writer: %v", err))
		}
	}
	fw.Write(src)
	fw.Close()
	d.wpool.Put(&pooledWriter{w: fw, gen: gen})
	return buf.Bytes()
}

// Len implements Compressor: the length uvarint and the stream it counts.
func (d *Deflate) Len(enc []byte) (int, error) {
	l, n := binary.Uvarint(enc)
	if n <= 0 || l > uint64(len(enc)-n) {
		return 0, fmt.Errorf("%w: bad deflate frame", ErrCorrupt)
	}
	return n + int(l), nil
}

// Decompress implements Compressor.
func (d *Deflate) Decompress(src []byte) ([]byte, error) { return d.AppendDecompress(nil, src) }

// AppendDecompress implements Compressor. The frame must span src exactly.
func (d *Deflate) AppendDecompress(dst, src []byte) ([]byte, error) {
	l, n := binary.Uvarint(src)
	if n <= 0 || l != uint64(len(src)-n) {
		return nil, fmt.Errorf("%w: bad deflate frame", ErrCorrupt)
	}
	return d.inflate(dst, src[n:])
}

// inflate appends what stream made src from to dst.
func (d *Deflate) inflate(dst, src []byte) ([]byte, error) {
	d.mu.RLock()
	dict := d.dict
	d.mu.RUnlock()
	var fr io.ReadCloser
	if len(dict) > 0 {
		fr = flate.NewReaderDict(bytes.NewReader(src), dict)
	} else {
		fr = flate.NewReader(bytes.NewReader(src))
	}
	defer fr.Close()
	out := bytes.NewBuffer(dst)
	if _, err := out.ReadFrom(fr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out.Bytes(), nil
}

var _ Compressor = (*Deflate)(nil)
