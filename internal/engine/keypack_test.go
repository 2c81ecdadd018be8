package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"tierbase/internal/compress"
	"tierbase/internal/pmem"
	"tierbase/internal/workload"
)

// ledgerModel is the key model a stripe of the ledger's k%015d keys learns:
// 2 bytes beside the length byte's 3 bits for a 15-digit piece, values up
// to 524 287, and the shape 'k', 15 digits, "" in 3 bytes, values up to
// 16 777 215.
var ledgerModel = keyModel{widths{15: 2}, shape{prefix: "k", n: 15, size: 3}}

// pack is key packed under m.
func pack(m keyModel, key string) []byte { return appendPacked(&m, nil, key) }

// TestKeyPackForm pins the packed form of one key of each kind: a key of
// the shape, at either end of its size and past it, one of its length in
// ordinary form (padded), one of another prefix, a digit piece that fits
// the widths, at either end of a width, one that does not, a piece neither
// form shortens, a run past maxRun digits, and literal 0xFF and 0xFE bytes.
func TestKeyPackForm(t *testing.T) {
	for _, c := range []struct {
		model keyModel
		key   string
		want  []byte
	}{
		{keyModel{}, "", nil},
		{ledgerModel, "", nil},
		{keyModel{}, "k000000000123456", []byte{'k', packMark, 15 << 3, 0, 0, 0, 0x01, 0xE2, 0x40}},
		{ledgerModel, "k000000000123456", []byte{0x01, 0xE2, 0x40}},
		{ledgerModel, "k000000000000000", []byte{0, 0, 0}},
		{ledgerModel, "k000000016777215", []byte{0xFF, 0xFF, 0xFF}},
		{ledgerModel, "k000000016777216", []byte{'k', packMark, 15 << 3, 0, 0, 0x01, 0, 0, 0}},
		{ledgerModel, "k12", []byte{'k', '1', '2', packMark, padByte}},
		{ledgerModel, "\xfe", []byte{packMark, 1}},
		{keyModel{widths{15: 2}, shape{}}, "k000000000123456", []byte{'k', modelMark, 15<<3 | 1, 0xE2, 0x40}},
		{ledgerModel, "j000000000123456", []byte{'j', modelMark, 15<<3 | 1, 0xE2, 0x40}},
		{ledgerModel, "j000000000524287", []byte{'j', modelMark, 15<<3 | 7, 0xFF, 0xFF}},
		{ledgerModel, "j000000000524288", []byte{'j', packMark, 15 << 3, 0, 0, 0, 0x08, 0, 0}},
		{keyModel{}, "user:000000000042", []byte{'u', 's', 'e', 'r', ':', packMark, 12 << 3, 0, 0, 0, 0, 42}},
		{keyModel{widths: widths{12: 1}}, "user:000000000042", []byte{'u', 's', 'e', 'r', ':', modelMark, 12 << 3, 42}},
		{keyModel{}, "k007", []byte{'k', modelMark, 3<<3 | 7}},
		{keyModel{}, "k1234", []byte("k1234")}, // 4 bytes either way
		{keyModel{widths: widths{4: 1}}, "k1234", []byte{'k', modelMark, 4<<3 | 4, 0xD2}},
		{keyModel{}, "k01234", []byte{'k', packMark, 5 << 3, 0x04, 0xD2}},
		{keyModel{}, "99999", []byte{packMark, 5<<3 | 1, 0x86, 0x9F}},
		{keyModel{}, strings.Repeat("0", 21), []byte{modelMark, 19 << 3, '0', '0'}},
		{keyModel{}, "a\xffb", []byte{'a', packMark, 0, 'b'}},
		{keyModel{}, "a\xfeb", []byte{'a', packMark, 1, 'b'}},
	} {
		if got := pack(c.model, c.key); !bytes.Equal(got, c.want) {
			t.Errorf("pack(%v, %q) = %x, want %x", c.model, c.key, got, c.want)
		}
	}
}

// modelOf is the key model ws and the rest spell: ws[n-1] is the width of
// n digits, taken modulo the widths n may have, and the shape is prefix,
// 1 + n%maxRun digits, suffix, in size bytes modulo the sizes its digits
// may have (0: no shape).
func modelOf(ws []byte, prefix, suffix string, n, size byte) (m keyModel) {
	for n := 1; n <= min(maxRun, len(ws)); n++ {
		m.widths[n] = ws[n-1] % uint8(runBytes[n])
	}
	n = 1 + n%maxRun
	if size %= uint8(runBytes[n]) + 1; size != 0 {
		m.shape = shape{prefix: prefix, suffix: suffix, n: n, size: size}
	}
	return m
}

// pieceLen is what a piece of n digits takes at width w: the mark, the
// length byte and w bytes, or its digits where that is no shorter.
func pieceLen(n, w int) int {
	if 2+w < n {
		return 2 + w
	}
	return n
}

// misfitCost is how many bytes more key's ordinary form is under w than
// that of the key of its form whose digits are all 0: for each digit piece
// that does not fit w, its full form's length (or its digits') less its
// model form's.
func misfitCost(w widths, key string) int {
	cost := 0
	for i := 0; i < len(key); {
		for i < len(key) && key[i]-'0' > 9 {
			i++
		}
		j := i
		var v uint64
		for ; j < len(key) && j-i < maxRun && key[j]-'0' <= 9; j++ {
			v = v*10 + uint64(key[j]-'0')
		}
		if n := j - i; n > 0 && width(v) > int(w[n]) {
			cost += pieceLen(n, runBytes[n]-1) - pieceLen(n, int(w[n]))
		}
		i = j
	}
	return cost
}

// ofShape reports whether key is prefix, n digits, suffix, and if so the
// digits' value.
func ofShape(s shape, key string) (v uint64, ok bool) {
	mid, fore := strings.CutPrefix(key, s.prefix)
	mid, aft := strings.CutSuffix(mid, s.suffix)
	if !fore || !aft || len(mid) != int(s.n) {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 10, 64)
	return v, err == nil
}

// FuzzKeyPack checks, under a model drawn from widths and a shape: that
// unpack inverts pack, and hash and unpackedLen read the key as written;
// that what pack writes is the one packed form of its key (it unpacks and
// packs back to itself, from a string or a []byte); that two keys pack
// equal only if they are equal; that a key of the shape whose value fits
// its size packs to the value alone, in size bytes, and every other key to
// its ordinary form, padded with packMark padByte where that is size bytes
// long (so a key of the shape past its size falls back to the ordinary
// form); and that the ordinary form is no longer than the key escaped, and
// one length per form of key as long as its digit pieces fit the widths,
// each one that does not taking its full form (or its digits, where that
// is no shorter).
func FuzzKeyPack(f *testing.F) {
	nines := strings.Repeat("9", 40)
	for _, seed := range [][2]string{
		{"", "0"},
		{"\xff", "\xff\x00"},
		{"\xff\x0f\x01", "\xff\xfe"},
		{"k000000000123456", "k000000000123457"},
		{nines[:19], nines[:20]},
		{nines, "x" + strings.Repeat("0", 40)},
		{"00001234", "1234"},
		{"txn:000000000000007", "user:000000000007"},
		{"1234567:12345678", "1234567\xfa12345678/9"},
	} {
		f.Add(seed[0], seed[1], []byte(nil), "", "", byte(0), byte(0))
	}
	// One below and one above each width a 15-digit piece may have, under
	// the model that gives it that width.
	for w := 0; w < runBytes[15]; w++ {
		ws := make([]byte, 15)
		ws[14] = byte(w)
		top := uint64(1) << (3 + 8*w)
		f.Add(fmt.Sprintf("k%015d", top-1), fmt.Sprintf("k%015d", top), ws, "", "", byte(0), byte(0))
	}
	// Under the ledger's model: a key of its shape and one past its size;
	// the empty key and one whose ordinary form is the shape's length.
	ws := make([]byte, 15)
	ws[14] = 2
	f.Add("k000000000123456", "k000000016777216", ws, "k", "", byte(14), byte(3))
	f.Add("", "k12", ws, "k", "", byte(14), byte(3))
	f.Add("user:000000042:session", "user:000000042:sessio\xfe", ws, "user:", ":session", byte(8), byte(4))
	f.Fuzz(func(t *testing.T, a, b string, ws []byte, prefix, suffix string, n, size byte) {
		m := modelOf(ws, prefix, suffix, n, size)
		pa, pb := pack(m, a), pack(m, b)
		for _, c := range []struct {
			key    string
			packed []byte
		}{{a, pa}, {b, pb}} {
			if got := m.unpackKey(c.packed); got != c.key {
				t.Fatalf("%q packs to %x under %v, which unpacks to %q", c.key, c.packed, m, got)
			}
			if n, h := m.unpackedLen(c.packed), m.hash(c.packed); n != len(c.key) || h != fnv1a(c.key) {
				t.Fatalf("%q packs to %x under %v, of unpacked length %d and hash %#x", c.key, c.packed, m, n, h)
			}
			if again := pack(m, m.unpackKey(c.packed)); !bytes.Equal(again, c.packed) || !bytes.Equal(appendPacked(&m, nil, []byte(c.key)), c.packed) {
				t.Fatalf("%q packs to %x under %v, then to %x", c.key, c.packed, m, again)
			}
			ord := appendOrdinary(&m.widths, nil, c.key)
			want := ord
			if v, ok := ofShape(m.shape, c.key); ok && m.size != 0 && (m.size >= 8 || v < 1<<(8*m.size)) {
				want = binary.BigEndian.AppendUint64(nil, v)
				want = append(make([]byte, max(0, int(m.size)-8)), want[max(0, 8-int(m.size)):]...)
			} else if m.size != 0 && len(ord) == int(m.size) {
				want = append(ord, packMark, padByte)
			}
			if !bytes.Equal(c.packed, want) {
				t.Fatalf("%q packs to %x under %v, want %x (ordinary form %x)", c.key, c.packed, m, want, ord)
			}
			if len(ord) > len(c.key)+strings.Count(c.key, "\xfe")+strings.Count(c.key, "\xff") {
				t.Fatalf("%q packs to %x under %v, longer than its escaped self", c.key, ord, m)
			}
			zeroed := []byte(c.key)
			for i, d := range zeroed {
				if d-'0' <= 9 {
					zeroed[i] = '0'
				}
			}
			if z := appendOrdinary(&m.widths, nil, zeroed); len(ord) != len(z)+misfitCost(m.widths, c.key) {
				t.Fatalf("%q takes %d bytes in ordinary form under %v, %q %d, and its pieces that do not fit cost %d", c.key, len(ord), m, zeroed, len(z), misfitCost(m.widths, c.key))
			}
		}
		if a != b && bytes.Equal(pa, pb) {
			t.Fatalf("%q and %q both pack to %x under %v", a, b, pa, m)
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
// cost, as a format pin: every stripe learns ledgerModel while its table
// is short (the largest key at its last one-hold rebuild is about 10.8k,
// which takes the 2-byte width, and the shape's 3 bytes hold 16 777 215),
// and 200 000 keys take exactly 5 976 256 bytes, every key 3 bytes packed
// (its value alone), which is 13 bytes a key less than with keys stored as
// written, and 1 376 256 of it is index: sixteen tables of 14 336
// slots, 0.87 full, every resize done by the time the fill ends. At 200k and
// 1M keys nothing spills and no entry is within a quarter of the reach of
// its limit, though the stripe and the slot now come from one fnv1a of the
// key: the stripe from its low bits, the home from the high bits of its
// Fibonacci product.
func TestLedgerKeyShape(t *testing.T) {
	for _, n := range []int{200_000, 1_000_000} {
		e := New(Options{})
		val := make([]byte, 18)
		for i := 0; i < n; i++ {
			e.Set(fmt.Sprintf("k%015d", i), val)
		}
		if n == 200_000 {
			for _, s := range e.shards {
				if s.strs.model != ledgerModel {
					t.Fatalf("a stripe learned the model %v, want %v", s.strs.model, ledgerModel)
				}
				s.strs.each(func(rec record) bool {
					if k := rec.key(); len(k) != 3 {
						t.Fatalf("%q packs to %x", s.strs.model.unpackKey(k), k)
					}
					return true
				})
			}
			saved := int64(n * 13)
			st := e.Stats()
			if st.PackedBytes != saved {
				t.Errorf("packing saved %d bytes, want %d", st.PackedBytes, saved)
			}
			if got, want := e.MemUsed(), 8_576_256-saved; got != want || got != 5_976_256 {
				t.Errorf("MemUsed %d, want %d", got, want)
			}
			if st.IndexBytes != 1_376_256 || st.PayloadBytes+st.PackedBytes != int64(n)*(16+18) {
				t.Errorf("index %d bytes, payload %d + %d packed away", st.IndexBytes, st.PayloadBytes, st.PackedBytes)
			}
		}
		run, spilled := longestRun(e)
		t.Logf("%d keys: longest run %d", n, run)
		if spilled != 0 || run > reach*3/4 {
			t.Errorf("%d keys: longest run %d of a reach of %d, %d spilled", n, run, reach, spilled)
		}
	}
}

// TestLedgerRecordShape pins what a hit-read key's record costs, as a format
// pin: 200 000 k%015d keys with workload.NewKV1 values under PBC trained as
// the server trains it (Sample(kv1, 500)). A value whose numbers lie inside
// the sample's ranges compresses to the 13 bytes of PBC's bit field, header
// bits included, and its record is 17 bytes: the flags-and-length byte, the
// 3-byte packed key and the value, with no value length. The rest carry an
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
			if f.flags != flagCompressed || len(f.key) != 3 || f.size != 1+3+len(f.val) {
				t.Fatalf("record of %q: flags %#x, %d B for a %d B value", s.strs.model.unpackKey(f.key), f.flags, f.size, len(f.val))
			}
			sizes[f.size]++
			slots += int64(slotSize(f.size))
			return true
		})
	}
	if want := map[int]int{17: 193_790, 18: 6_165, 19: 45}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("records by size %v, want %v", sizes, want)
	}
	st := e.Stats()
	if st.IndexBytes != 1_376_256 || e.MemUsed() != slots+st.IndexBytes || e.MemUsed() != 4_782_511 {
		t.Errorf("MemUsed %d: %d of records, %d of index", e.MemUsed(), slots, st.IndexBytes)
	}
}

// TestRemodelCarriesEveryRecordKind: a re-model re-packs every record into
// a fresh slab, and each kind of record comes through it whole. One stripe
// with an arena takes k%015d keys whose values are i^5, so that rebuild
// after rebuild widens its model, as raw strings, PMem values (which keep
// their arena ref: the arena's bytes do not move or grow), strings with a
// deadline and sets; every key then reads back as written, and the books
// balance.
func TestRemodelCarriesEveryRecordKind(t *testing.T) {
	arena := pmem.NewArena(pmem.OpenVolatile(1<<22, pmem.Latency{}))
	e := New(Options{Shards: 1, Arena: arena})
	ix := &e.shards[0].strs
	key := func(i int) string { x := uint64(i); return fmt.Sprintf("k%015d", x*x*x*x*x) }
	long := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	const n = 900
	models := map[keyModel]bool{}
	var used int64
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			e.Set(key(i), []byte(key(i)))
		case 1:
			e.Set(key(i), long(i))
			if used == arena.Used() {
				t.Fatalf("%s: a 100-byte value stayed out of the arena", key(i))
			}
			used = arena.Used()
		case 2:
			e.Set(key(i), []byte(key(i)))
			e.ExpireAt(key(i), int64(4e18)+int64(i)) // far ahead
		case 3:
			e.SAdd(key(i), key(i), "x")
		}
		models[ix.model] = true
		if arena.Used() != used {
			t.Fatalf("after %d keys the arena holds %d bytes, %d before", i+1, arena.Used(), used)
		}
	}
	if len(models) < 5 {
		t.Fatalf("the model took only %d values: %v", len(models), models)
	}
	for i := 0; i < n; i++ {
		k := key(i)
		switch i % 4 {
		case 0:
			if v, err := e.Get(k); err != nil || string(v) != k {
				t.Fatalf("Get(%s) = %q, %v", k, v, err)
			}
		case 1:
			if v, err := e.Get(k); err != nil || !bytes.Equal(v, long(i)) {
				t.Fatalf("Get(%s) = %q, %v", k, v, err)
			}
		case 2:
			if d, ok := e.TTL(k); !ok || d <= 0 {
				t.Fatalf("TTL(%s) = %v, %v", k, d, ok)
			}
		case 3:
			if ok, err := e.SIsMember(k, k); !ok || err != nil {
				t.Fatalf("SIsMember(%s) = %v, %v", k, ok, err)
			}
		}
	}
	if err := checkBooks(e); err != nil {
		t.Fatal(err)
	}
}
