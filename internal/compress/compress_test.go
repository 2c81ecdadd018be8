package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tierbase/internal/workload"
)

func allCompressors(t *testing.T, train [][]byte) []Compressor {
	t.Helper()
	cs := []Compressor{Raw{}, NewDeflate(6, false), NewDeflate(6, true), NewPBC()}
	for _, c := range cs {
		if err := c.Train(train); err != nil {
			t.Fatalf("%s train: %v", c.Name(), err)
		}
	}
	return cs
}

func TestRoundTripAllCompressors(t *testing.T) {
	samples := workload.Sample(workload.NewKV1(), 200)
	for _, c := range allCompressors(t, samples) {
		for i := int64(1000); i < 1100; i++ {
			rec := workload.NewKV1().Record(i)
			comp := c.Compress(rec)
			got, err := c.Decompress(comp)
			if err != nil {
				t.Fatalf("%s: decompress: %v", c.Name(), err)
			}
			if !bytes.Equal(got, rec) {
				t.Fatalf("%s: roundtrip mismatch:\n got %q\nwant %q", c.Name(), got, rec)
			}
			if got, err := c.AppendDecompress([]byte("pre"), comp); err != nil || string(got) != "pre"+string(rec) {
				t.Fatalf("%s: AppendDecompress after \"pre\" = %q (%v)", c.Name(), got, err)
			}
			// Every encoding but raw's ends where it says it does.
			enc, want := comp, len(comp)
			if c.Name() != "raw" {
				enc = append(slices.Clip(comp), 0xA5, 0x80, 0)
			}
			if n, err := c.Len(enc); n != want || err != nil {
				t.Fatalf("%s: Len = %d (%v), want %d", c.Name(), n, err, want)
			}
		}
	}
}

// TestPBCManyPatterns trains 256 patterns, so that a pattern id takes 8
// bits and the header bits run into a record's second byte: every record
// round-trips, ends where Len says, and no matched record starts with the
// escape byte.
func TestPBCManyPatterns(t *testing.T) {
	var samples, recs [][]byte
	for i := 0; i < 256; i++ {
		for j := 0; j < 4; j++ {
			// Token counts differ from one i to the next: no two shapes merge.
			rec := []byte(strings.Repeat("a-", i) + "n=" + strconv.Itoa(i*4+j))
			samples = append(samples, rec)
			recs = append(recs, rec, append(slices.Clip(rec), '7'))
		}
	}
	p := NewPBC()
	p.Train(samples)
	if n := len(p.set.Load().patterns); n < 200 {
		t.Fatalf("%d patterns, want 256", n)
	}
	for _, rec := range recs {
		comp := p.Compress(rec)
		if IsEscape(comp) {
			t.Fatalf("%q escaped", rec)
		}
		if got, err := p.Decompress(comp); err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("%q -> % x -> %q (%v)", rec, comp, got, err)
		}
		if n, err := p.Len(append(slices.Clip(comp), 0, 0)); n != len(comp) || err != nil {
			t.Fatalf("%q: Len = %d (%v), want %d", rec, n, err, len(comp))
		}
	}
}

func TestRoundTripArbitraryBytes(t *testing.T) {
	samples := workload.Sample(workload.NewCities(), 100)
	cs := allCompressors(t, samples)
	f := func(data []byte) bool {
		for _, c := range cs {
			got, err := c.Decompress(c.Compress(data))
			if err != nil {
				return false
			}
			if after, err := c.AppendDecompress([]byte("pre"), c.Compress(data)); err != nil || string(after) != "pre"+string(data) {
				return false
			}
			if len(data) == 0 && len(got) == 0 {
				continue
			}
			if !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPretrainedBeatsUntrained(t *testing.T) {
	for _, ds := range []workload.Dataset{workload.NewKV1(), workload.NewKV2(), workload.NewCities()} {
		train := workload.Sample(ds, 500)
		eval := make([][]byte, 300)
		for i := range eval {
			eval[i] = ds.Record(int64(10000 + i))
		}
		plain := NewDeflate(6, false)
		dict := NewDeflate(6, true)
		dict.Train(train)
		rPlain := MeasureRatio(plain, eval)
		rDict := MeasureRatio(dict, eval)
		if rDict >= rPlain {
			t.Errorf("%s: dictionary did not help: dict %.4f vs plain %.4f", ds.Name(), rDict, rPlain)
		}
	}
}

func TestPBCBeatsDictOnMachineData(t *testing.T) {
	// Paper Table 2: "PBC consistently achieves higher compression ratios
	// than Zstd", especially on machine-generated KV datasets.
	for _, ds := range []workload.Dataset{workload.NewKV1(), workload.NewKV2()} {
		train := workload.Sample(ds, 500)
		eval := make([][]byte, 300)
		for i := range eval {
			eval[i] = ds.Record(int64(20000 + i))
		}
		dict := NewDeflate(6, true)
		dict.Train(train)
		pbc := NewPBC()
		pbc.Train(train)
		rDict := MeasureRatio(dict, eval)
		rPBC := MeasureRatio(pbc, eval)
		if rPBC >= rDict {
			t.Errorf("%s: PBC ratio %.4f not better than dict %.4f", ds.Name(), rPBC, rDict)
		}
	}
}

// pbcRecords is how many records the trained-schema tests compress per dataset.
func pbcRecords() int64 {
	if testing.Short() {
		return 2000
	}
	return 20000
}

// TestPBCPatternsExtracted trains the way the server trains (Sample(ds,
// 500)) and pins what a record then costs. The engine stores a value's
// bytes exactly (no size classes), so every byte here is a byte of the
// ledger's hit-read DRAM footprint. The budgets sit just above the bit-field
// format's figures over records 0..19999: KV1 longest 16 B at ratio 0.0781,
// KV2 23 B at 0.1511, cities 0.5192.
func TestPBCPatternsExtracted(t *testing.T) {
	for _, tc := range []struct {
		ds       workload.Dataset
		maxLen   int     // longest compressed record
		maxRatio float64 // compressed/raw over all records
	}{
		{workload.NewKV1(), 16, 0.080},
		{workload.NewKV2(), 24, 0.155},
		{workload.NewCities(), 1 << 20, 0.53},
	} {
		p := NewPBC()
		p.Train(workload.Sample(tc.ds, 500))
		set := p.set.Load()
		if set == nil || len(set.patterns) == 0 {
			t.Fatalf("%s: no patterns extracted", tc.ds.Name())
		}
		var raw, comp, longest, unmatched int
		for i := int64(0); i < pbcRecords(); i++ {
			rec := tc.ds.Record(i)
			c := p.Compress(rec)
			raw += len(rec)
			comp += len(c)
			longest = max(longest, len(c))
			if IsEscape(c) {
				unmatched++
			}
		}
		ratio := float64(comp) / float64(raw)
		t.Logf("%s: %d patterns, ratio %.4f, mean %.1f B, longest %d B, %d unmatched",
			tc.ds.Name(), len(set.patterns), ratio, float64(comp)/float64(pbcRecords()), longest, unmatched)
		// Machine-generated data should mostly match patterns.
		if rate := float64(unmatched) / float64(pbcRecords()); rate > 0.2 {
			t.Errorf("%s: unmatched rate %.3f too high", tc.ds.Name(), rate)
		}
		if longest > tc.maxLen {
			t.Errorf("%s: longest compressed record %d B, budget %d B", tc.ds.Name(), longest, tc.maxLen)
		}
		if ratio > tc.maxRatio {
			t.Errorf("%s: ratio %.4f, budget %.3f", tc.ds.Name(), ratio, tc.maxRatio)
		}
	}
}

// hasException reports whether a matched record carries an exception bitmap.
func hasException(comp []byte) bool { return comp[0]&headException != 0 }

// TestPBCNoExceptionsOnTrainedSchema: a schema's closed value sets and
// number ranges are all in the training sample, so live records of that
// schema neither escape nor carry exceptions.
func TestPBCNoExceptionsOnTrainedSchema(t *testing.T) {
	for _, ds := range []workload.Dataset{workload.NewKV1(), workload.NewKV2()} {
		p := NewPBC()
		p.Train(workload.Sample(ds, 500))
		escapes, exceptions := 0, 0
		for i := int64(0); i < pbcRecords(); i++ {
			switch c := p.Compress(ds.Record(i)); {
			case IsEscape(c):
				escapes++
			case hasException(c):
				exceptions++
			}
		}
		if escapes != 0 || exceptions != 0 {
			t.Errorf("%s: %d escapes, %d exception records of %d", ds.Name(), escapes, exceptions, pbcRecords())
		}
	}
}

func TestPBCUntrainedEscapes(t *testing.T) {
	p := NewPBC()
	data := []byte("anything at all")
	comp := p.Compress(data)
	if !IsEscape(comp) {
		t.Fatal("untrained PBC should escape-code")
	}
	got, err := p.Decompress(comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("escape roundtrip: %q %v", got, err)
	}
}

// numericPBC is trained on "id=<n>;pad=<4 digits>": a literal, a
// variable-width number (0..693: base 0, 10 bits), a literal, a fixed-width
// number (0000..0099: base 0, 7 bits). One pattern, so its id takes no
// bits: the bit field is the 2 header bits and 17 slot bits, 3 bytes.
func numericPBC() *PBC {
	p := NewPBC()
	var samples [][]byte
	for i := 0; i < 100; i++ {
		samples = append(samples, []byte(fmt.Sprintf("id=%d;pad=%04d", i*7, i)))
	}
	p.Train(samples)
	return p
}

func TestPBCNumericSlots(t *testing.T) {
	p := numericPBC()
	for _, tc := range []struct {
		src  string
		size int // bit field (header bits included) + bitmap + payload bytes; no per-slot mode byte
	}{
		// Past the trained range: the all-ones code, then the excess.
		{"id=999999;pad=0042", 3 + 3}, // uvarint(999999 - 1023)
		{"id=0;pad=0000", 3},
		{"id=123;pad=9999", 3 + 2}, // uvarint(9999 - 127)
		// 20 digits do not fit a uint64 slot: that slot alone goes raw
		// (bitmap + length + digits), the other stays in the field.
		{"id=12345678901234567890;pad=0042", 3 + 1 + 21},
		// Leading zero in a variable-width slot, wrong width in a fixed one.
		{"id=007;pad=0042", 3 + 1 + 4},
		{"id=7;pad=42", 3 + 1 + 3},
	} {
		comp := p.Compress([]byte(tc.src))
		got, err := p.Decompress(comp)
		if err != nil || string(got) != tc.src {
			t.Fatalf("numeric roundtrip %q -> %q (%v)", tc.src, got, err)
		}
		if IsEscape(comp) || len(comp) != tc.size {
			t.Errorf("%q compressed to %d B (% x), want %d", tc.src, len(comp), comp, tc.size)
		}
		if n, err := p.Len(append(comp, 0xA5, 0)); n != len(comp) || err != nil {
			t.Errorf("%q: Len = %d (%v), want %d", tc.src, n, err, len(comp))
		}
	}
}

// TestPBCBitField: enum and single-chunk number slots share one bit field,
// and a number past its trained width costs the all-ones code plus a uvarint
// of the excess, not an exception.
func TestPBCBitField(t *testing.T) {
	ds := workload.NewKV1()
	p := NewPBC()
	p.Train(workload.Sample(ds, 500))
	pat := &p.set.Load().patterns[0]
	rec := ds.Record(77) // a ledger key's value: its index is within the sample's range
	clean := p.Compress(rec)
	if IsEscape(clean) || hasException(clean) || len(clean) != pat.fieldBytes || len(clean) != 13 {
		t.Fatalf("in-range KV1 record compressed to %d B (% x), want 13: the %d field bytes, header bits included",
			len(clean), clean, pat.fieldBytes)
	}

	prefix, uid := pat.segs[0].literal, pat.segs[1] // `{"user_id":"`, its 12 digits
	if uid.kind != slotNum || uid.bits == 0 {
		t.Fatalf("user_id is not a bit-field number: %+v", uid)
	}
	code := ones(uid.bits)
	var hi uint64 // the sample's largest user_id
	for _, s := range workload.Sample(ds, 500) {
		n, _ := strconv.ParseUint(string(s[len(prefix):][:12]), 10, 64)
		hi = max(hi, n)
	}
	for _, id := range []uint64{uid.base + code, hi + 1e9} {
		mut := bytes.Replace(rec, []byte("208800000077"), strconv.AppendUint(nil, id, 10), 1)
		comp := p.Compress(mut)
		got, err := p.Decompress(comp)
		if err != nil || !bytes.Equal(got, mut) {
			t.Fatalf("user_id %d: roundtrip %q -> %q (%v)", id, mut, got, err)
		}
		excess := binary.AppendUvarint(nil, id-uid.base-code)
		if IsEscape(comp) || hasException(comp) || len(comp) != len(clean)+len(excess) {
			t.Errorf("user_id %d: %d B (% x), want %d + uvarint excess %d B, no bitmap",
				id, len(comp), comp, len(clean), len(excess))
		}
	}

	// 19-digit values with base 0 need all 64 bits; the all-ones code is
	// MaxUint64, which no 19-digit value reaches.
	wide := NewPBC()
	var samples [][]byte
	for _, n := range []string{"1000000000000000000", "9999999999999999999", "4611686018427387904", "9223372036854775808"} {
		samples = append(samples, []byte("n="+n), []byte("n="+n))
	}
	wide.Train(samples)
	if seg := wide.set.Load().patterns[0].segs[1]; seg.kind != slotNum || seg.bits != 64 || seg.base != 0 {
		t.Fatalf("wide slot trained as %+v, want a 64-bit number, base 0", seg)
	}
	for _, n := range []string{"9999999999999999999", "9999999999999999998", "9223372036854775807",
		"9223372036854775808", "0", "18446744073709551614", "18446744073709551615", "18446744073709551616"} {
		src := []byte("n=" + n)
		comp := wide.Compress(src)
		if got, err := wide.Decompress(comp); err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%s: roundtrip -> %q (%v)", n, got, err)
		}
		if exc := len(n) > maxNumDigits; IsEscape(comp) || hasException(comp) != exc || !exc && len(comp) != 9 {
			t.Errorf("%s: % x, want 9 field bytes: 2 header bits and 64 (20 digits: an exception)", n, comp)
		}
	}
	// Header bits 01 (matched, no bitmap), then the 64 bits all set.
	allOnes := []byte{0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03}
	if got, err := wide.Decompress(append(allOnes, 0)); err != nil || string(got) != "n=18446744073709551615" {
		t.Errorf("all-ones code + excess 0: %q (%v), want MaxUint64", got, err)
	}

	// The all-ones code with a truncated or overflowing excess is corrupt.
	num := numericPBC()
	idOnes := []byte{0xfd, 0x0f, 0} // num: header bits 01, id's 10 bits all set, pad 0
	for _, tc := range []struct {
		name string
		p    *PBC
		src  []byte
	}{
		{"no excess", num, idOnes},
		{"truncated excess", num, append(slices.Clone(idOnes), 0x80)},
		{"excess past uint64", num, append(slices.Clone(idOnes), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)},
		{"code + excess wraps", num, append(slices.Clone(idOnes), maxUvarint...)},
		{"64-bit code + 1", wide, append(slices.Clone(allOnes), 1)},
	} {
		if out, err := tc.p.Decompress(tc.src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: % x decoded to %q (%v), want ErrCorrupt", tc.name, tc.src, out, err)
		}
	}
}

// TestPBCSlotExceptions: a value outside what training fixed for its slot
// costs that slot's raw bytes, not the record's pattern.
func TestPBCSlotExceptions(t *testing.T) {
	ds := workload.NewKV1()
	p := NewPBC()
	p.Train(workload.Sample(ds, 500))
	rec := ds.Record(4242)
	plain := p.Compress(rec)
	if IsEscape(plain) || hasException(plain) {
		t.Fatalf("trained-schema record did not encode cleanly: % x", plain)
	}
	for name, mutate := range map[string][2]string{
		"unseen enum value":  {`"status":"`, `"status":"X`},
		"leading zero":       {`"level":`, `"level":0`},
		"20+ digit number":   {`"score":`, `"score":12345678901234567890`},
		"below trained base": {`"user_id":"2088`, `"user_id":"1088`},
	} {
		mut := bytes.Replace(rec, []byte(mutate[0]), []byte(mutate[1]), 1)
		if bytes.Equal(mut, rec) {
			t.Fatalf("%s: mutation did not apply", name)
		}
		comp := p.Compress(mut)
		got, err := p.Decompress(comp)
		if err != nil || !bytes.Equal(got, mut) {
			t.Fatalf("%s: roundtrip %q -> %q (%v)", name, mut, got, err)
		}
		if IsEscape(comp) || !hasException(comp) {
			t.Errorf("%s: want an exception record, got % x", name, comp)
		}
		if extra := len(comp) - len(plain); extra > 2+1+24 { // bitmap, length, the slot's bytes
			t.Errorf("%s: exception cost %d B over the clean record", name, extra)
		}
	}
}

// TestPBCDecompressBoundedWork: no length Decompress reads can make it
// loop or allocate beyond what the pattern and len(src) allow. The first
// three inputs drove the per-slot-tagged decoder's zero-padding loop for
// 97 ms, 8.7 s and forever.
func TestPBCDecompressBoundedWork(t *testing.T) {
	p := numericPBC()
	huge := binary.AppendUvarint(nil, 1<<63)
	for _, src := range [][]byte{
		append(binary.AppendUvarint([]byte{1, 3}, 20000), 0),
		append(binary.AppendUvarint([]byte{1, 3}, 200000), 0),
		append(append([]byte{1, 3}, huge...), 0),
		// This format: a fixed-width slot holding more digits than trained
		// (pad's 7 bits, 12-18, at the all-ones code, then a huge excess), a
		// raw exception longer than the buffer, a truncated bitmap, a
		// truncated field.
		append([]byte{0x01, 0xf0, 0x07}, huge...),
		append(append([]byte{0x03, 0, 0, 0b11}, huge...), 0),
		{0x03, 0, 0},
		{3},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := p.Decompress(src)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("% x: decoded to %q (%v), want ErrCorrupt", src, out, err)
		}
		if took > 10*time.Millisecond {
			t.Errorf("% x: took %v", src, took)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("% x: allocated %d B", src, grew)
		}
	}
}

// TestPBCAllocs: the online path allocates its result and nothing else.
func TestPBCAllocs(t *testing.T) {
	for _, ds := range []workload.Dataset{workload.NewKV1(), workload.NewKV2(), workload.NewCities()} {
		p := NewPBC()
		p.Train(workload.Sample(ds, 500))
		rec := ds.Record(31337)
		comp := p.Compress(rec)
		for IsEscape(comp) { // cities: ~2% of shapes are not in the sample
			rec = ds.Record(int64(len(rec)) + 1)
			comp = p.Compress(rec)
		}
		if n := testing.AllocsPerRun(200, func() { benchSink = p.Compress(rec) }); n != 1 {
			t.Errorf("%s: Compress allocates %.0f times, want 1", ds.Name(), n)
		}
		if n := testing.AllocsPerRun(200, func() { benchSink, _ = p.Decompress(comp) }); n != 1 {
			t.Errorf("%s: Decompress allocates %.0f times, want 1", ds.Name(), n)
		}
		buf := make([]byte, 0, 2*len(rec))
		if n := testing.AllocsPerRun(200, func() { buf, _ = p.AppendDecompress(buf[:0], comp) }); n != 0 {
			t.Errorf("%s: AppendDecompress into a buffer with room allocates %.0f times, want 0", ds.Name(), n)
		}
		if n := testing.AllocsPerRun(200, func() { p.Len(comp) }); n != 0 {
			t.Errorf("%s: Len allocates %.0f times, want 0", ds.Name(), n)
		}
	}
}

// TestPBCTrainConcurrentWithUse: Train publishes a new set while readers
// compress and decompress under the current one. Retraining on the same
// sample gives the same set, so buffers stay decodable (retraining on
// different data invalidates them; no caller does that with live data).
func TestPBCTrainConcurrentWithUse(t *testing.T) {
	ds := workload.NewKV1()
	samples := workload.Sample(ds, 200)
	p := NewPBC()
	p.Train(samples)
	stop, trained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(trained)
		for {
			select {
			case <-stop:
				return
			default:
				p.Train(samples)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rec := ds.Record(int64(g*1000 + i))
				comp := p.Compress(rec)
				if got, err := p.Decompress(comp); err != nil || !bytes.Equal(got, rec) || IsEscape(comp) {
					t.Errorf("roundtrip during Train: %q -> %q (%v)", rec, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-trained
}

func TestPBCDecompressCorrupt(t *testing.T) {
	p := NewPBC()
	p.Train(workload.Sample(workload.NewKV1(), 100))
	if _, err := p.Decompress(nil); err == nil {
		t.Fatal("nil input should fail")
	}
	if _, err := p.Decompress([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("bad pattern id should fail")
	}
}

func TestDeflateDecompressCorrupt(t *testing.T) {
	d := NewDeflate(6, false)
	if _, err := d.Decompress([]byte{1, 2, 3, 4}); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestDeflateRetrainInvalidatesPool(t *testing.T) {
	d := NewDeflate(6, true)
	s1 := workload.Sample(workload.NewKV1(), 100)
	d.Train(s1)
	rec := workload.NewKV1().Record(42)
	c1 := d.Compress(rec)
	// Retrain on different data; old pooled writers must not leak old dict.
	d.Train(workload.Sample(workload.NewCities(), 100))
	c2 := d.Compress(rec)
	if got, err := d.Decompress(c2); err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("post-retrain roundtrip: %v", err)
	}
	_ = c1 // c1 is undecodable now (old dict) — that's expected semantics
}

func TestByName(t *testing.T) {
	for _, name := range []string{"raw", "deflate", "deflate-dict", "pbc", "zstd-b", "zstd-d", ""} {
		if _, err := ByName(name, 0); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("lzma", 0); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestTrainDictionary(t *testing.T) {
	samples := [][]byte{
		[]byte("the quick brown fox jumps over"),
		[]byte("the quick brown fox leaps over"),
		[]byte("the quick brown fox runs away now"),
	}
	dict := TrainDictionary(samples, 1024)
	if len(dict) == 0 {
		t.Fatal("empty dictionary from repetitive samples")
	}
	if len(dict) > 1024 {
		t.Fatalf("dictionary exceeds max: %d", len(dict))
	}
	if !bytes.Contains(dict, []byte("quick brown fox")) && !bytes.Contains(dict, []byte("the quick brown")) {
		t.Logf("dict: %q", dict)
		t.Fatal("dictionary missing frequent phrase")
	}
}

func TestTrainDictionaryEmpty(t *testing.T) {
	if d := TrainDictionary(nil, 100); len(d) != 0 {
		t.Fatalf("nil samples produced dict of %d bytes", len(d))
	}
}

func TestMonitorRetrainOnRatioDrift(t *testing.T) {
	m := NewMonitor(0.3)
	m.MinRecords = 10
	for i := 0; i < 20; i++ {
		m.Observe(100, 31, false) // 0.31 within slack of 0.3*1.15
	}
	if m.RetrainNeeded() {
		t.Fatal("within slack should not trigger")
	}
	for i := 0; i < 200; i++ {
		m.Observe(100, 90, false) // degraded ratio
	}
	if !m.RetrainNeeded() {
		t.Fatalf("ratio drift not detected: ratio=%.3f", m.Ratio())
	}
}

func TestMonitorRetrainOnUnmatched(t *testing.T) {
	m := NewMonitor(0.5)
	m.MinRecords = 10
	for i := 0; i < 100; i++ {
		m.Observe(100, 40, i%5 == 0) // 20% unmatched > 5% threshold
	}
	if !m.RetrainNeeded() {
		t.Fatalf("unmatched drift not detected: rate=%.3f", m.UnmatchedRate())
	}
}

func TestMonitorMinRecords(t *testing.T) {
	m := NewMonitor(0.1)
	m.Observe(100, 99, true)
	if m.RetrainNeeded() {
		t.Fatal("tiny sample should not trigger")
	}
}

func TestMeasureRatioEmpty(t *testing.T) {
	if r := MeasureRatio(Raw{}, nil); r != 1 {
		t.Fatalf("ratio of nothing = %f", r)
	}
}

func TestTokenizeClasses(t *testing.T) {
	toks := tokenize([]byte("abc123-def"))
	if len(toks) != 4 {
		t.Fatalf("tokens: %d", len(toks))
	}
	if toks[0].class != classAlpha || toks[1].class != classDigit ||
		toks[2].class != classDelim || toks[3].class != classAlpha {
		t.Fatalf("classes wrong: %+v", toks)
	}
}

func TestSimilarityMetric(t *testing.T) {
	a := tokenize([]byte("status=ACTIVE"))
	b := tokenize([]byte("status=PAUSED"))
	c := tokenize([]byte("1,2,3"))
	if s := similarity(a, b); s < 0.8 {
		t.Fatalf("similar records scored %.2f", s)
	}
	if s := similarity(a, c); s != 0 {
		t.Fatalf("dissimilar records scored %.2f", s)
	}
	if s := similarity(a, a); s != 1 {
		t.Fatalf("self similarity %.2f", s)
	}
}
