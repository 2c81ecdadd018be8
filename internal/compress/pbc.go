package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// PBC is the Pattern-Based Compressor (paper §4.2, ref [59]): the offline
// phase tokenizes sample records, clusters them hierarchically by token
// structure with a similarity metric, and extracts per-cluster patterns —
// templates of literal segments and typed variable slots. The online phase
// selects a record's pattern by a hash of its token structure and encodes
// only the slot values, each in the form training fixed for it; a value
// that does not fit its slot's type travels as a per-record exception, and
// a record of unknown structure is escape-coded verbatim (the monitor uses
// that signal to trigger re-training). README.md has the wire format.
type PBC struct {
	set      atomic.Pointer[patternSet] // nil until Train
	residual *Deflate                   // second-stage coder for long raw slots
}

// patternSet is what Train publishes; it is never modified afterwards, so
// Compress and Decompress read it without a lock.
type patternSet struct {
	patterns []pattern
	byShape  map[uint64]int32 // shapeHash of a member record -> pattern index
}

// token classes
type tokenClass uint8

const (
	classDelim tokenClass = iota // punctuation/whitespace run (kept literal)
	classDigit                   // [0-9]+
	classAlpha                   // [A-Za-z]+
	classMixed                   // slot whose members disagree on class
)

type token struct {
	class tokenClass
	text  []byte
}

// slotKind is the encoding training fixed for a slot. It is a property of
// the pattern: no record carries it.
type slotKind uint8

const (
	slotRaw  slotKind = iota // uvarint(len<<1 | deflated) + bytes
	slotEnum                 // index into values, in the record's enum bit field
	slotNum                  // uvarint(value - base) per chunk of digits
)

// segment is one element of a pattern: a fixed literal or a variable slot.
type segment struct {
	literal []byte // non-empty => literal segment; the rest describes a slot

	class tokenClass // the single-class run the slot consumes
	kind  slotKind

	values [][]byte // slotEnum: the closed value set, sorted
	bitOff int      // slotEnum: position in the enum bit field
	bits   int      // slotEnum: width there, ceil(log2(len(values)))

	width int    // slotNum: digit count when fixed-width (leading zeros kept), else 0
	chunk int    // slotNum: digits per uvarint (a 21-digit id is two chunks)
	base  uint64 // slotNum: subtracted from the first chunk
}

type pattern struct {
	segs      []segment
	slots     int // exception bitmap is (slots+7)/8 bytes
	enumBytes int // enum bit field size
	sizeHint  int // decoded length of a record whose slots stay within what training saw
}

// zeros left-pads a fixed-width chunk.
var zeros = strings.Repeat("0", maxNumDigits)

// escape pattern id: record stored verbatim.
const pbcEscape = 0

const (
	maxEnumCard  = 200 // bounds enum tables per slot
	maxNumDigits = 19  // every 19-digit decimal fits a uint64
	deflateMin   = 64  // raw slots this long try the second-stage coder
	scratchBytes = 256 // Compress's stack buffer; longer outputs spill to the heap
)

// NewPBC returns an untrained PBC compressor (everything escape-coded
// until Train is called).
func NewPBC() *PBC {
	return &PBC{residual: NewDeflate(6, false)}
}

// Name implements Compressor.
func (p *PBC) Name() string { return "pbc" }

// --- tokenization ---

var classTable = func() (t [256]tokenClass) {
	for b := range t {
		switch {
		case b >= '0' && b <= '9':
			t[b] = classDigit
		case (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z'):
			t[b] = classAlpha
		}
	}
	return t
}()

// tokenize splits src into runs of a single class; adjacent digit/alpha
// runs stay separate so numeric slots are isolated. Training only: the
// online path never materializes tokens.
func tokenize(src []byte) []token {
	var out []token
	for i := 0; i < len(src); {
		j := runEnd(src, i, classTable[src[i]])
		out = append(out, token{class: classTable[src[i]], text: src[i:j]})
		i = j
	}
	return out
}

// runEnd returns the end of the run of class c starting at src[i:]; a
// classMixed slot takes the run of whatever class src[i] has.
func runEnd(src []byte, i int, c tokenClass) int {
	if c == classMixed && i < len(src) {
		c = classTable[src[i]]
	}
	for i < len(src) && classTable[src[i]] == c {
		i++
	}
	return i
}

// shapeHash is FNV-1a over a record's token structure: delimiter bytes
// literally, every digit or letter run as one class marker. Records with
// equal token structure hash equally; it is how a record finds its pattern.
func shapeHash(src []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(src); {
		c := classTable[src[i]]
		if c == classDelim {
			h = (h ^ uint64(src[i])) * prime
			i++
			continue
		}
		h = (h ^ (0x100 | uint64(c))) * prime // no byte value collides with a marker
		i = runEnd(src, i, c)
	}
	return h
}

// --- training: hierarchical clustering + pattern extraction ---

type cluster struct {
	toks   [][]token // member token sequences, all of one length
	shapes []uint64  // shape hashes of the leaves merged into this cluster
}

// similarity is the fraction of token positions where two equal-length
// token sequences agree on class, weighted by literal agreement. This is
// the clustering metric; sequences of different lengths score 0.
func similarity(a, b []token) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	match := 0.0
	for i := range a {
		if a[i].class != b[i].class {
			continue
		}
		if bytes.Equal(a[i].text, b[i].text) {
			match += 1.0
		} else {
			match += 0.5
		}
	}
	return match / float64(len(a))
}

// Train implements Compressor: cluster samples, extract patterns, fix every
// slot's encoding, and publish the set. Equal sample lists give equal sets.
// Buffers compressed under the previous set are not decodable afterwards.
func (p *PBC) Train(samples [][]byte) error {
	// Level 1: exact-shape leaf clusters, in order of first appearance.
	leaves := map[uint64]*cluster{}
	var order []*cluster
	for _, s := range samples {
		if len(s) == 0 {
			continue
		}
		toks, key := tokenize(s), shapeHash(s)
		cl := leaves[key]
		if cl == nil {
			cl = &cluster{shapes: []uint64{key}}
			leaves[key] = cl
			order = append(order, cl)
		} else if len(toks) != len(cl.toks[0]) {
			continue // two shapes, one 64-bit hash: the first keeps the leaf
		}
		cl.toks = append(cl.toks, toks)
	}

	// Level 2: agglomerative merge of leaf clusters whose representative
	// sequences are similar (same token count, aligned classes). Merged
	// clusters widen literal positions into slots.
	const mergeThreshold = 0.85
	var merged []*cluster
	for _, cl := range order {
		placed := false
		for _, m := range merged {
			if similarity(m.toks[0], cl.toks[0]) >= mergeThreshold {
				m.toks = append(m.toks, cl.toks...)
				m.shapes = append(m.shapes, cl.shapes...)
				placed = true
				break
			}
		}
		if !placed {
			merged = append(merged, cl)
		}
	}

	set := &patternSet{byShape: map[uint64]int32{}}
	for _, m := range merged {
		// Every member shape selects the merged pattern.
		for _, h := range m.shapes {
			set.byShape[h] = int32(len(set.patterns))
		}
		set.patterns = append(set.patterns, extractPattern(m.toks))
	}
	p.set.Store(set)
	return nil
}

// extractPattern turns a cluster into a pattern: a position is a literal
// iff every member agrees byte-for-byte (adjacent literals fuse into one
// segment); otherwise it becomes a slot whose type trainSlot decides.
func extractPattern(members [][]token) pattern {
	var pat pattern
	enumBits := 0
	col := make([][]byte, len(members))
	for pos, first := range members[0] {
		allEqual, class := true, first.class
		for i, toks := range members {
			t := toks[pos]
			col[i] = t.text
			if !bytes.Equal(t.text, first.text) {
				allEqual = false
			}
			if t.class != class {
				class = classMixed
			}
		}
		if allEqual {
			pat.sizeHint += len(first.text)
			if n := len(pat.segs); n > 0 && len(pat.segs[n-1].literal) > 0 {
				pat.segs[n-1].literal = append(pat.segs[n-1].literal, first.text...)
			} else {
				pat.segs = append(pat.segs, segment{literal: append([]byte(nil), first.text...)})
			}
			continue
		}
		seg, maxLen := trainSlot(class, col)
		if seg.kind == slotEnum {
			seg.bitOff = enumBits
			enumBits += seg.bits
		}
		pat.segs = append(pat.segs, seg)
		pat.slots++
		pat.sizeHint += maxLen
	}
	pat.enumBytes = (enumBits + 7) / 8
	return pat
}

// trainSlot fixes the encoding of one slot from the values the cluster's
// members have there, and reports the longest of them.
//
//   - Digit runs become slotNum when a number reproduces them: all of one
//     length (then leading zeros and more than 19 digits are fine: fixed
//     width, split into equal chunks), or no leading zeros and at most 19
//     digits. base is the sample minimum rounded down to the smallest power
//     of ten above the sample spread, so ids and timestamps that share
//     their high digits cost only their low ones, while a field that
//     starts at 0 keeps base 0.
//   - Other runs become slotEnum when the sample shows a small closed set:
//     at most maxEnumCard distinct values, each seen twice on average.
//   - Everything else is slotRaw.
func trainSlot(class tokenClass, col [][]byte) (segment, int) {
	seg := segment{class: class, kind: slotRaw}
	distinct := map[string]struct{}{}
	maxLen, sameLen, leadingZero := 0, true, false
	for _, v := range col {
		if len(distinct) <= maxEnumCard {
			distinct[string(v)] = struct{}{}
		}
		maxLen = max(maxLen, len(v))
		sameLen = sameLen && len(v) == len(col[0])
		leadingZero = leadingZero || (len(v) > 1 && v[0] == '0')
	}

	switch {
	case class == classDigit && sameLen && (leadingZero || maxLen > maxNumDigits):
		seg.kind, seg.width = slotNum, maxLen
		n := (maxLen + maxNumDigits - 1) / maxNumDigits
		seg.chunk = (maxLen + n - 1) / n
	case class == classDigit && !leadingZero && maxLen <= maxNumDigits:
		seg.kind, seg.chunk = slotNum, maxNumDigits
	case class != classDigit && len(distinct) <= maxEnumCard && len(col) >= 2*len(distinct):
		seg.kind = slotEnum
		for v := range distinct {
			seg.values = append(seg.values, []byte(v))
		}
		slices.SortFunc(seg.values, bytes.Compare)
		seg.bits = max(1, bits.Len(uint(len(seg.values)-1)))
	}
	if seg.kind == slotNum && maxLen <= seg.chunk {
		lo, hi := parseDigits(col[0]), parseDigits(col[0])
		for _, v := range col {
			n := parseDigits(v)
			lo, hi = min(lo, n), max(hi, n)
		}
		for g := uint64(1); ; g *= 10 {
			if g > hi-lo {
				seg.base = lo - lo%g
				break
			}
			if g > hi/10 {
				break // spread as wide as the values: nothing to subtract
			}
		}
	}
	return seg, maxLen
}

// PatternCount reports the number of trained patterns.
func (p *PBC) PatternCount() int {
	if set := p.set.Load(); set != nil {
		return len(set.patterns)
	}
	return 0
}

// --- compression ---

// Compress implements Compressor. A record that matches a pattern costs one
// allocation, the result.
func (p *PBC) Compress(src []byte) []byte {
	if set := p.set.Load(); set != nil {
		if id, ok := set.byShape[shapeHash(src)]; ok {
			var scratch [scratchBytes]byte
			if enc, ok := set.patterns[id].encode(scratch[:0], uint64(id), src, p.residual); ok {
				return append([]byte(nil), enc...)
			}
		}
	}
	// Escape: pattern id 0, verbatim payload.
	out := make([]byte, 1+len(src))
	out[0] = pbcEscape
	copy(out[1:], src)
	return out
}

// encode walks the pattern against src and appends the record to dst:
// header, exception bitmap (only when a slot needed it), enum bit field,
// slot payloads. ok is false when src is not an instance of the pattern.
func (pat *pattern) encode(dst []byte, id uint64, src []byte, residual *Deflate) ([]byte, bool) {
	dst = binary.AppendUvarint(dst, (id+1)<<1)
	hdr, bitmap := len(dst), (pat.slots+7)/8
	enum := hdr + bitmap
	for i := 0; i < bitmap+pat.enumBytes; i++ {
		dst = append(dst, 0) // not append(dst, make(...)...): that allocates under -race
	}
	pos, slot, exception := 0, 0, false
	for i := range pat.segs {
		seg := &pat.segs[i]
		if n := len(seg.literal); n > 0 {
			if len(src)-pos < n || !bytes.Equal(src[pos:pos+n], seg.literal) {
				return nil, false
			}
			pos += n
			continue
		}
		end := runEnd(src, pos, seg.class)
		if end == pos {
			return nil, false
		}
		text := src[pos:end]
		pos = end

		fits := false
		switch seg.kind {
		case slotEnum:
			var idx int
			if idx, fits = enumIndex(seg.values, text); fits {
				v := uint(idx) << (seg.bitOff & 7) // at most 8+7 bits
				dst[enum+seg.bitOff>>3] |= byte(v)
				if v > 0xff {
					dst[enum+seg.bitOff>>3+1] |= byte(v >> 8)
				}
			}
		case slotNum:
			if seg.width > 0 {
				fits = len(text) == seg.width
			} else {
				fits = len(text) <= maxNumDigits && (text[0] != '0' || len(text) == 1)
			}
			n := min(len(text), seg.chunk)
			first := parseDigits(text[:n])
			if fits = fits && first >= seg.base; fits {
				dst = binary.AppendUvarint(dst, first-seg.base)
				for rest := text[n:]; len(rest) > 0; rest = rest[n:] {
					n = min(len(rest), seg.chunk)
					dst = binary.AppendUvarint(dst, parseDigits(rest[:n]))
				}
			}
		case slotRaw:
			fits = true
			dst = appendRaw(dst, text, residual)
		}
		if !fits {
			exception = true
			dst[hdr+slot>>3] |= 1 << (slot & 7)
			dst = appendRaw(dst, text, residual)
		}
		slot++
	}
	if pos != len(src) {
		return nil, false
	}
	if exception {
		dst[0] |= 1 // the header's low bit; (id+1)<<1 left it clear
	} else {
		dst = append(dst[:hdr], dst[enum:]...)
	}
	return dst, true
}

// parseDigits reads at most 19 decimal digits.
func parseDigits(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v*10 + uint64(c-'0')
	}
	return v
}

// enumIndex finds text in the sorted value set.
func enumIndex(values [][]byte, text []byte) (int, bool) {
	lo, hi := 0, len(values)
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := bytes.Compare(values[mid], text); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// appendRaw emits a raw slot or an exception. Long values get a
// second-stage string compression pass ("residual strings are then
// compressed further", §4.2) when that shrinks them.
func appendRaw(dst, text []byte, residual *Deflate) []byte {
	if len(text) >= deflateMin {
		if comp := residual.Compress(text); len(comp) < len(text) {
			dst = binary.AppendUvarint(dst, uint64(len(comp))<<1|1)
			return append(dst, comp...)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(text))<<1)
	return append(dst, text...)
}

// --- decompression ---

// Decompress implements Compressor. Every length it reads is bounded by
// len(src) or by what the trained slot allows, so its work and its output
// are bounded by the pattern plus len(src) (times DEFLATE's own 1032:1 for
// a deflated raw slot).
func (p *PBC) Decompress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, ErrCorrupt
	}
	if src[0] == pbcEscape {
		return append([]byte(nil), src[1:]...), nil
	}
	set := p.set.Load()
	hdr, pos := binary.Uvarint(src)
	if set == nil || pos <= 0 || hdr>>1 == 0 || hdr>>1 > uint64(len(set.patterns)) {
		return nil, fmt.Errorf("%w: bad pattern id", ErrCorrupt)
	}
	pat := &set.patterns[hdr>>1-1]

	bitmapBytes := 0
	if hdr&1 != 0 {
		bitmapBytes = (pat.slots + 7) / 8
	}
	if len(src)-pos < bitmapBytes+pat.enumBytes {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	bitmap := src[pos : pos+bitmapBytes]
	pos += bitmapBytes
	enum := src[pos : pos+pat.enumBytes]
	pos += pat.enumBytes

	out := make([]byte, 0, pat.sizeHint)
	slot := 0
	for i := range pat.segs {
		seg := &pat.segs[i]
		if len(seg.literal) > 0 {
			out = append(out, seg.literal...)
			continue
		}
		kind := seg.kind
		if len(bitmap) > 0 && bitmap[slot>>3]&(1<<(slot&7)) != 0 {
			kind = slotRaw
		}
		slot++
		switch kind {
		case slotEnum:
			v := uint(enum[seg.bitOff>>3]) >> (seg.bitOff & 7)
			if seg.bitOff&7+seg.bits > 8 {
				v |= uint(enum[seg.bitOff>>3+1]) << (8 - seg.bitOff&7)
			}
			if v &= 1<<seg.bits - 1; v >= uint(len(seg.values)) {
				return nil, fmt.Errorf("%w: bad enum slot", ErrCorrupt)
			}
			out = append(out, seg.values[v]...)
		case slotNum:
			base := seg.base
			// One chunk when variable-width, else chunks until width digits are out.
			for done := 0; done == 0 || done < seg.width; done += seg.chunk {
				v, n := binary.Uvarint(src[pos:])
				if n <= 0 || v+base < v {
					return nil, fmt.Errorf("%w: bad numeric slot", ErrCorrupt)
				}
				pos += n
				var digits [20]byte
				text := strconv.AppendUint(digits[:0], v+base, 10)
				if seg.width > 0 { // left-pad the chunk to its width in one step
					w := min(seg.chunk, seg.width-done)
					if len(text) > w {
						return nil, fmt.Errorf("%w: numeric slot wider than trained", ErrCorrupt)
					}
					out = append(out, zeros[:w-len(text)]...)
				}
				out = append(out, text...)
				base = 0
			}
		case slotRaw:
			l, n := binary.Uvarint(src[pos:])
			if n <= 0 || l>>1 > uint64(len(src)-pos-n) {
				return nil, fmt.Errorf("%w: bad raw slot", ErrCorrupt)
			}
			pos += n
			body := src[pos : pos+int(l>>1)]
			pos += len(body)
			if l&1 != 0 {
				var err error
				if body, err = p.residual.Decompress(body); err != nil {
					return nil, err
				}
			}
			out = append(out, body...)
		}
	}
	if pos != len(src) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return out, nil
}

var _ Compressor = (*PBC)(nil)
