package compress

import (
	"bytes"
	"compress/flate"
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

// Compress implements Compressor.
func (d *Deflate) Compress(src []byte) []byte {
	d.mu.RLock()
	dict := d.dict
	gen := d.wgen
	d.mu.RUnlock()

	var buf bytes.Buffer
	buf.Grow(len(src)/2 + 16)
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

// Decompress implements Compressor.
func (d *Deflate) Decompress(src []byte) ([]byte, error) {
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
	out, err := io.ReadAll(fr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

var _ Compressor = (*Deflate)(nil)
