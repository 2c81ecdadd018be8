package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tierbase/internal/compress"
	"tierbase/internal/workload"
)

// TestKeyPackForm pins the packed form of one key of each shape: a digit
// run the mark shortens, one it does not, a run past maxRun digits, and a
// literal 0xFF.
func TestKeyPackForm(t *testing.T) {
	for _, c := range []struct {
		key  string
		want []byte
	}{
		{"", nil},
		{"k000000000123456", []byte{'k', packMark, 15 << 3, 0, 0, 0, 0x01, 0xE2, 0x40}},
		{"user:000000000042", []byte{'u', 's', 'e', 'r', ':', packMark, 12 << 3, 0, 0, 0, 0, 42}},
		{"k1234", []byte("k1234")}, // 4 bytes either way
		{"k01234", []byte{'k', packMark, 5 << 3, 0x04, 0xD2}},
		{"99999", []byte{packMark, 5<<3 | 1, 0x86, 0x9F}},
		{strings.Repeat("0", 21), []byte{packMark, 19 << 3, 0, 0, 0, 0, 0, 0, 0, 0, '0', '0'}},
		{"a\xffb", []byte{'a', packMark, 0, 'b'}},
	} {
		if got := packKey(c.key); !bytes.Equal(got, c.want) {
			t.Errorf("pack(%q) = %x, want %x", c.key, got, c.want)
		}
	}
}

// FuzzKeyPack checks that unpack inverts pack, that what pack writes is
// the one packed form of its key (it unpacks and packs back to itself),
// that no two keys pack equal, and that how long a key packs depends on
// where its digits are and not on what they are.
func FuzzKeyPack(f *testing.F) {
	nines := strings.Repeat("9", 40)
	for _, seed := range [][2]string{
		{"", "0"},
		{"\xff", "\xff\x00"},
		{"\xff\x0f\x01", "\xff\xff"},
		{"k000000000123456", "k000000000123457"},
		{nines[:19], nines[:20]},
		{nines, "x" + strings.Repeat("0", 40)},
		{"00001234", "1234"},
		{"txn:000000000000007", "user:000000000007"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		pa, pb := packKey(a), packKey(b)
		for _, c := range []struct {
			key    string
			packed []byte
		}{{a, pa}, {b, pb}} {
			if got := unpackKey(c.packed); got != c.key {
				t.Fatalf("%q packs to %x, which unpacks to %q", c.key, c.packed, got)
			}
			if n := unpackedLen(c.packed); n != len(c.key) {
				t.Fatalf("%q packs to %x, of unpacked length %d", c.key, c.packed, n)
			}
			if again := packKey(unpackKey(c.packed)); !bytes.Equal(again, c.packed) {
				t.Fatalf("%q packs to %x, then to %x", c.key, c.packed, again)
			}
			if len(c.packed) > len(c.key)+strings.Count(c.key, "\xff") {
				t.Fatalf("%q packs to %x, longer than its escaped self", c.key, c.packed)
			}
			zeroed := []byte(c.key)
			for i, d := range zeroed {
				if d-'0' <= 9 {
					zeroed[i] = '0'
				}
			}
			if z := packKey(string(zeroed)); len(z) != len(c.packed) {
				t.Fatalf("%q packs to %d bytes, %q to %d", c.key, len(c.packed), zeroed, len(z))
			}
		}
		if a != b && bytes.Equal(pa, pb) {
			t.Fatalf("%q and %q both pack to %x", a, b, pa)
		}
	})
}

// longestRun is how far the entry farthest from its home sits, and how
// many entries spilled, over every stripe of e.
func longestRun(e *Engine) (run, spilled int) {
	for _, s := range e.shards {
		ix := &s.strs
		for _, t := range []*table{&ix.table, &ix.old} {
			for i, m := range t.meta {
				if m != 0 {
					run = max(run, away(i, m))
				}
			}
		}
		spilled += len(ix.spill)
	}
	return run, spilled
}

// TestLedgerKeyShape pins what the ledger's keys (k%015d, 18-byte values)
// cost, as a format pin: 200 000 of them take exactly 7 176 256 bytes,
// which is 7 bytes a key less than with keys stored as written (the mark
// and 7 bytes of length and value where there were 15 digits), and 1 376 256
// of it is index: sixteen tables of 14 336 slots, 0.87 full, every resize
// done by the time the fill ends. At 200k and 1M keys nothing spills
// and no entry is within a quarter of the reach of its limit (the longest
// runs are 39 and 43 slots: what random hashes give at those loads, since
// the stripe is chosen by the hash of the key as written and the slot by
// that of the key packed).
func TestLedgerKeyShape(t *testing.T) {
	for _, n := range []int{200_000, 1_000_000} {
		e := New(Options{})
		val := make([]byte, 18)
		for i := 0; i < n; i++ {
			e.Set(fmt.Sprintf("k%015d", i), val)
		}
		if n == 200_000 {
			saved := int64(n * 7)
			st := e.Stats()
			if st.PackedBytes != saved {
				t.Errorf("packing saved %d bytes, want %d", st.PackedBytes, saved)
			}
			if got, want := e.MemUsed(), 8_576_256-saved; got != want {
				t.Errorf("MemUsed %d, want %d", got, want)
			}
			if st.IndexBytes != 1_376_256 || st.PayloadBytes+st.PackedBytes != int64(n)*(16+18) {
				t.Errorf("index %d bytes, payload %d + %d packed away", st.IndexBytes, st.PayloadBytes, st.PackedBytes)
			}
		}
		if run, spilled := longestRun(e); spilled != 0 || run > reach*3/4 {
			t.Errorf("%d keys: longest run %d of a reach of %d, %d spilled", n, run, reach, spilled)
		}
	}
}

// TestLedgerRecordShape pins what a hit-read key's record costs, as a format
// pin: 200 000 k%015d keys with workload.NewKV1 values under PBC trained as
// the server trains it (Sample(kv1, 500)). A value whose numbers lie inside
// the sample's ranges compresses to the 13 bytes of PBC's bit field, header
// bits included, and its record is 23 bytes: the flags-and-length byte, the
// 9-byte packed key and the value, with no value length. The rest carry an
// excess past a slot's all-ones code. MemUsed is every record at its slot
// and the sixteen 14 336-slot tables of TestLedgerKeyShape, to the byte.
func TestLedgerRecordShape(t *testing.T) {
	ds := workload.NewKV1()
	c := compress.NewPBC()
	c.Train(workload.Sample(ds, 500))
	e := New(Options{Compressor: c})
	const n = 200_000
	for i := 0; i < n; i++ {
		e.Set(fmt.Sprintf("k%015d", i), ds.Record(int64(i)))
	}
	sizes := map[int]int{}
	var slots int64
	for _, s := range e.shards {
		s.strs.each(func(rec record) bool {
			f := s.strs.parse(rec)
			if f.flags != flagCompressed || len(f.key) != 9 || f.size != 1+9+len(f.val) {
				t.Fatalf("record of %q: flags %#x, %d B for a %d B value", unpackKey(f.key), f.flags, f.size, len(f.val))
			}
			sizes[f.size]++
			slots += int64(slotSize(f.size))
			return true
		})
	}
	if want := map[int]int{23: 193_790, 24: 6_165, 25: 45}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("records by size %v, want %v", sizes, want)
	}
	st := e.Stats()
	if st.IndexBytes != 1_376_256 || e.MemUsed() != slots+st.IndexBytes || e.MemUsed() != 5_982_511 {
		t.Errorf("MemUsed %d: %d of records, %d of index", e.MemUsed(), slots, st.IndexBytes)
	}
}
