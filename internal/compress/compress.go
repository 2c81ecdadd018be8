// Package compress implements TierBase's pre-trained compression mechanism
// (paper §4.2): an offline training phase builds a dictionary (Zstd-style)
// or a pattern set (PBC), which the compression phase then applies to every
// record. A monitor watches compression efficiency in production and
// triggers re-training; a recommender picks the best compressor for a
// workload sample.
//
// Substitution note: the paper uses Zstandard; stdlib-only
// Go has no Zstd, so the "Zstd" role is played by DEFLATE (compress/flate)
// wrapped with the same pre-trained-dictionary machinery. The experiments
// concern the pre-training mechanism, not the entropy coder, and the
// orderings the paper reports (ratio: PBC < dict < no-dict; speed:
// dict > PBC > no-dict on SET, PBC ~ raw on GET) are preserved.
//
// README.md in this directory has PBC's wire format, what training decides
// per slot, and the codec's contract.
package compress

import (
	"errors"
	"fmt"
)

// Compressor is the uniform interface over all compression strategies.
// Implementations are safe for concurrent use after Train.
type Compressor interface {
	// Name identifies the compressor (e.g. "raw", "deflate", "deflate-dict", "pbc").
	Name() string
	// Train performs the offline pre-training phase on sample records.
	// Training again replaces the previous dictionary/patterns.
	Train(samples [][]byte) error
	// Compress returns the encoded form of src.
	Compress(src []byte) []byte
	// Decompress reverses Compress.
	Decompress(src []byte) ([]byte, error)
}

// ErrCorrupt reports undecodable compressed data.
var ErrCorrupt = errors.New("compress: corrupt data")

// Raw is the identity compressor (the TierBase-Raw configuration).
type Raw struct{}

// Name implements Compressor.
func (Raw) Name() string { return "raw" }

// Train implements Compressor (no-op).
func (Raw) Train([][]byte) error { return nil }

// Compress implements Compressor (returns src unchanged).
func (Raw) Compress(src []byte) []byte { return src }

// Decompress implements Compressor.
func (Raw) Decompress(src []byte) ([]byte, error) { return src, nil }

// ByName constructs a compressor from its name; level applies to deflate
// variants (1..9; 0 = default 6).
func ByName(name string, level int) (Compressor, error) {
	switch name {
	case "raw", "":
		return Raw{}, nil
	case "deflate", "zstd-b":
		return NewDeflate(level, false), nil
	case "deflate-dict", "zstd-d":
		return NewDeflate(level, true), nil
	case "pbc":
		return NewPBC(), nil
	default:
		return nil, fmt.Errorf("compress: unknown compressor %q", name)
	}
}

// MeasureRatio compresses every record and returns compressedBytes/rawBytes
// (lower is better; the paper's "Comp. Ratio").
func MeasureRatio(c Compressor, records [][]byte) float64 {
	var raw, comp int64
	for _, r := range records {
		raw += int64(len(r))
		comp += int64(len(c.Compress(r)))
	}
	if raw == 0 {
		return 1
	}
	return float64(comp) / float64(raw)
}
