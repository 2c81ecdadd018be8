package compress

import (
	"bytes"
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

// FuzzPBCRoundTrip: Compress is lossless for any input, whether it matches
// a pattern cleanly, needs exceptions, or escapes.
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
	f.Fuzz(func(t *testing.T, src []byte) {
		comp := p.Compress(src)
		got, err := p.Decompress(comp)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%q -> % x -> %q (%v)", src, comp, got, err)
		}
		if IsEscape(comp) && len(comp) != len(src)+1 {
			t.Fatalf("%q: malformed escape % x", src, comp)
		}
	})
}

// FuzzPBCDecompress feeds the decoder arbitrary bytes: it must not panic,
// and what it returns is bounded by the pattern's own bytes (literals, enum
// values, fixed widths) plus what src can carry: 20 digits per uvarint, raw
// bytes one for one, DEFLATE's 1032:1 inside a deflated raw slot.
func FuzzPBCDecompress(f *testing.F) {
	p := fuzzPBC()
	for _, rec := range [][]byte{workload.NewKV1().Record(5), workload.NewKV2().Record(5), []byte("unmatched")} {
		comp := p.Compress(rec)
		f.Add(comp)
		f.Add(comp[:len(comp)-1])
		f.Add(append(comp[:1:1], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
		comp[0] |= 1 // claim an exception bitmap that is not there
		f.Add(comp)
	}
	fixed := 0
	for _, pat := range p.set.Load().patterns {
		n := 0
		for _, seg := range pat.segs {
			n += len(seg.literal) + seg.width
			longest := 0
			for _, v := range seg.values {
				longest = max(longest, len(v))
			}
			n += longest
		}
		fixed = max(fixed, n)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		out, err := p.Decompress(src)
		if err != nil {
			return
		}
		if limit := fixed + 1032*len(src); len(out) > limit {
			t.Fatalf("%d B in, %d B out, limit %d", len(src), len(out), limit)
		}
	})
}
