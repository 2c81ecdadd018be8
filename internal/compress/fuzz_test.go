package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tierbase/internal/workload"
)

// fuzzPBC is trained on both machine-generated schemas, so fuzz inputs can
// reach every slot type: enums, plain and based numbers, fixed-width and
// chunked numbers.
func fuzzPBC() *PBC {
	p := NewPBC()
	p.Train(append(workload.Sample(workload.NewKV1(), 300), workload.Sample(workload.NewKV2(), 300)...))
	return p
}

// maxUvarint is the largest 10-byte uvarint, MaxUint64.
var maxUvarint = binary.AppendUvarint(nil, math.MaxUint64)

// patternOf returns the pattern a matched record selects.
func patternOf(p *PBC, rec []byte) *pattern {
	set := p.set.Load()
	return &set.patterns[set.byShape[shapeHash(rec)]]
}

// FuzzPBCRoundTrip: Compress is lossless for any input, whether it matches
// a pattern cleanly, needs exceptions, or escapes, AppendDecompress leaves
// what dst held in front, and a matched record ends where Len says,
// whatever follows it.
func FuzzPBCRoundTrip(f *testing.F) {
	kv1, kv2 := workload.NewKV1().Record(77), workload.NewKV2().Record(77)
	replace := func(rec []byte, old, new string) []byte {
		return bytes.Replace(rec, []byte(old), []byte(new), 1)
	}
	for _, seed := range [][]byte{
		kv1, kv2,
		replace(kv1, `"status":"`, `"status":"X`),                     // unseen enum value
		replace(kv1, `"level":`, `"level":0`),                         // leading zero
		replace(kv1, `"score":`, `"score":12345678901234567890`),      // 20+ digits
		replace(kv1, `"user_id":"2`, `"user_id":"1`),                  // below the trained base
		replace(kv1, `"city":"`, `"city":"`+strings.Repeat("ab", 64)), // long enough to deflate
		replace(kv1, `"city":"`, `"city":"é`),                         // non-ASCII inside a slot
		replace(kv2, "|CNY|", "||"),                                   // empty field
		replace(kv2, "2025", "025"),                                   // fixed-width id one digit short
		kv1[:len(kv1)/2],                                              // truncated record
		append([]byte{0}, kv1...),                                     // begins like an escape
		{}, {0}, {0xff},
	} {
		f.Add(seed)
	}
	p := fuzzPBC()
	// user_id at its slot's all-ones code (code + uvarint 0), and far past
	// the sample's maximum (code + a long uvarint).
	uid := patternOf(p, kv1).segs[1] // after `{"user_id":"`
	for _, id := range []uint64{uid.base + ones(uid.bits), uid.base + 1e15} {
		f.Add(replace(kv1, "208800000077", strconv.FormatUint(id, 10)))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		comp := p.Compress(src)
		got, err := p.Decompress(comp)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%q -> % x -> %q (%v)", src, comp, got, err)
		}
		if got, err := p.AppendDecompress([]byte("pre"), comp); err != nil || string(got) != "pre"+string(src) {
			t.Fatalf("%q -> % x -> %q after \"pre\" (%v)", src, comp, got, err)
		}
		if IsEscape(comp) && len(comp) != len(src)+1 {
			t.Fatalf("%q: malformed escape % x", src, comp)
		}
		enc := comp
		if !IsEscape(comp) { // an escape has no end of its own
			enc = append(slices.Clip(comp), src...)
		}
		if n, err := p.Len(enc); n != len(comp) || err != nil {
			t.Fatalf("%q -> % x: Len = %d (%v), want %d", src, comp, n, err, len(comp))
		}
	})
}

// FuzzPBCDecompress feeds the decoder arbitrary bytes: it must not panic,
// and what it returns is bounded by the pattern's own bytes (literals, enum
// values, fixed widths, 20 digits per variable-width numeric slot) plus what
// src can carry: 20 digits per chunk uvarint, raw bytes one for one,
// DEFLATE's 1032:1 inside a deflated raw slot. Len, the same walk writing
// nothing, must not panic either, must stay within src, and must say src
// is one record wherever Decompress decodes it.
func FuzzPBCDecompress(f *testing.F) {
	p := fuzzPBC()
	recs := [][]byte{workload.NewKV1().Record(5), workload.NewKV2().Record(5), []byte("unmatched")}
	for _, rec := range recs {
		comp := p.Compress(rec)
		f.Add(comp)
		f.Add(comp[:len(comp)-1])
		f.Add(append(comp[:1:1], maxUvarint...))
		comp[0] |= headException // claim an exception bitmap that is not there
		f.Add(comp)
	}
	// Every bit-field number at its all-ones code, followed by nothing or by
	// the largest 10-byte uvarint.
	for _, rec := range recs[:2] {
		pat, comp := patternOf(p, rec), p.Compress(rec)
		for _, seg := range pat.segs {
			if seg.kind == slotNum && seg.bits > 0 {
				putBits(comp, seg.bitOff, seg.bits, ones(seg.bits)) // no exception bitmap
			}
		}
		head := slices.Clip(comp[:pat.fieldBytes])
		f.Add(head)
		f.Add(append(head, maxUvarint...))
	}
	fixed := 0
	for _, pat := range p.set.Load().patterns {
		n := 0
		for _, seg := range pat.segs {
			n += len(seg.literal) + seg.width
			if seg.kind == slotNum && seg.width == 0 {
				n += 20 // digits of a variable-width number, in the field or not
			}
			longest := 0
			for _, v := range seg.values {
				longest = max(longest, len(v))
			}
			n += longest
		}
		fixed = max(fixed, n)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		n, lerr := p.Len(src)
		if lerr == nil && (n <= 0 || n > len(src)) {
			t.Fatalf("% x: Len = %d of %d B", src, n, len(src))
		}
		out, err := p.Decompress(src)
		if err != nil {
			return
		}
		if lerr != nil || n != len(src) {
			t.Fatalf("% x decodes, but Len = %d (%v)", src, n, lerr)
		}
		if limit := fixed + 1032*len(src); len(out) > limit {
			t.Fatalf("%d B in, %d B out, limit %d", len(src), len(out), limit)
		}
	})
}
