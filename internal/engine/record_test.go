package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tierbase/internal/pmem"
)

// recordRoundTrip writes the record of (key, a vlen-byte value of these
// flags) and takes it through everything the engine does to one: recordLen
// is the bytes writeRecord writes and parse reads back, hasKey tells the
// key from its neighbours, withDeadline moves it to a slot with a TTL and
// setDeadline rewrites that in place, neither disturbing key or value.
func recordRoundTrip(key string, vlen int, flags byte, deadline int64) error {
	st := staged{flags: flags, val: make([]byte, vlen)}
	for i := range st.val {
		st.val[i] = byte(i*7 + len(key))
	}
	want := st.val
	if flags&flagPMem != 0 {
		st.ref = pmem.Ref{Off: int64(vlen)<<20 + 5, Len: int32(vlen)}
		want = nil
	}
	n := recordLen(key, st.valueLen())
	const slack = 16 // after the record, as in a page: writeRecord must leave it alone
	buf := bytes.Repeat([]byte{0xA5}, n+8+slack)
	rec := record(buf[:n])
	writeRecord(rec, key, st)
	rec = buf // a page slot runs past its record: nothing may rely on len(rec)

	check := func(what string, r record, size int, flags byte, deadline int64) error {
		f := r.parse()
		// hasKey, and for a key byte 0 has room for hasShortKey with it.
		agree := true
		has := func(k string) bool {
			got := r.hasKey(k)
			agree = agree && (len(k) > maxShortKey || r.hasShortKey(k) == got)
			return got
		}
		switch {
		case f.size != size:
			return fmt.Errorf("%s: parse().size = %d, want %d", what, f.size, size)
		case f.flags != flags:
			return fmt.Errorf("%s: flags %#x, want %#x", what, f.flags, flags)
		case string(f.key) != key:
			return fmt.Errorf("%s: key %q, want %q", what, f.key, key)
		case f.deadline != deadline || r.deadline() != deadline:
			return fmt.Errorf("%s: deadline %d / %d, want %d", what, f.deadline, r.deadline(), deadline)
		case f.head+uvarintLen(uint64(len(f.val)))+len(f.val) != size:
			return fmt.Errorf("%s: head %d + value of %d bytes is not the record's %d", what, f.head, len(f.val), size)
		case want != nil && !bytes.Equal(f.val, want):
			return fmt.Errorf("%s: value changed", what)
		case want == nil && f.ref() != st.ref:
			return fmt.Errorf("%s: ref %+v, want %+v", what, f.ref(), st.ref)
		case f.payload() != payload(st.flags, len(key), len(st.val)):
			return fmt.Errorf("%s: payload %d, staged value says %d", what, f.payload(), payload(st.flags, len(key), len(st.val)))
		case !has(key) || has(key+"x") || has("x"+key):
			return fmt.Errorf("%s: hasKey does not tell %q from a longer key", what, key)
		case len(key) > 0 && (has(key[1:]) || has(key[:len(key)-1]+"\x00")):
			return fmt.Errorf("%s: hasKey does not tell %q from its neighbours", what, key)
		case !agree:
			return fmt.Errorf("%s: hasShortKey and hasKey disagree about the record of %q", what, key)
		}
		for i, b := range r[size:] {
			if b != 0xA5 {
				return fmt.Errorf("%s: byte %d past the record's %d written", what, i, size)
			}
		}
		return nil
	}
	if err := check("written", rec, n, flags, 0); err != nil {
		return err
	}
	dst := record(bytes.Repeat([]byte{0xA5}, n+8+slack))
	rec.withDeadline(dst, deadline)
	if err := check("withDeadline", dst, n+8, flags|flagTTL, deadline); err != nil {
		return err
	}
	dst.setDeadline(deadline ^ 0x5555)
	if err := check("setDeadline", dst, n+8, flags|flagTTL, deadline^0x5555); err != nil {
		return err
	}
	dst.setDeadline(0) // Persist: the slot stays, the key has no deadline
	return check("cleared", dst, n+8, flags|flagTTL, 0)
}

// TestRecordLayout covers both forms of the key length (in byte 0 up to
// maxShortKey bytes, a uvarint past that, one and two bytes of it), one-
// and two-byte value lengths, a record past the slab limit, and every
// combination of flags.
func TestRecordLayout(t *testing.T) {
	for _, klen := range []int{0, 1, 30, 31, 32, 127, 128, 300} {
		key := strings.Repeat("k", klen)
		if klen > 0 {
			key = key[:klen-1] + "z"
		}
		for _, vlen := range []int{0, 1, 127, 128, 1100} {
			for flags := byte(0); flags <= flagCompressed|flagPMem; flags++ {
				if err := recordRoundTrip(key, vlen, flags, 1<<62+12345); err != nil {
					t.Errorf("klen %d vlen %d flags %#x: %v", klen, vlen, flags, err)
				}
			}
		}
	}
	// What the ledger's hit-read key costs: its key, its stored value and
	// two bytes.
	if got := recordLen("user:000000001", 18); got != 14+18+2 {
		t.Errorf("a 14 B key with an 18 B stored value is a %d B record, want 34", got)
	}
}

// TestRecordLayoutInEngine takes the same key and value lengths through an
// engine of each value placement (raw, compressed, PMem, where values under
// pmemMin stay in DRAM), with and without a TTL: what is written is read
// back, the books balance, and a record past the slab limit is an
// allocation of its own.
func TestRecordLayoutInEngine(t *testing.T) {
	for name, opts := range map[string]Options{
		"raw":        {Shards: 1},
		"compressed": {Shards: 1, Compressor: tailCompressor{}, CompressMin: 1},
		"pmem":       {Shards: 1, Arena: pmem.NewArena(pmem.OpenVolatile(1<<20, pmem.Latency{}))},
	} {
		e := New(opts)
		type written struct {
			val []byte
			ttl bool
		}
		keys := map[string]written{}
		for _, klen := range []int{0, 1, 30, 31, 32, 127, 128, 300} {
			for _, vlen := range []int{0, 1, 127, 128, 1100} {
				key := strings.Repeat("k", klen) + fmt.Sprint(vlen)
				val := bytes.Repeat([]byte{byte(klen + 1)}, vlen)
				if vlen > 1 {
					val[vlen/2], val[vlen-1] = 0, 0 // a tail for tailCompressor
				}
				keys[key] = written{val, klen%2 == 0}
				if err := e.Set(key, val); err != nil {
					t.Fatal(err)
				}
				if keys[key].ttl && !e.ExpireAt(key, 1<<62) {
					t.Fatalf("%s: ExpireAt(%q) found no key", name, key)
				}
			}
		}
		for key, w := range keys {
			if got, err := e.Get(key); err != nil || !bytes.Equal(got, w.val) {
				t.Errorf("%s: Get(%d B key) = %d B, %v; want the %d B written", name, len(key), len(got), err, len(w.val))
			}
			if _, ok := e.TTL(key); ok != w.ttl {
				t.Errorf("%s: TTL(%d B key) present = %v, want %v", name, len(key), ok, w.ttl)
			}
		}
		if own := len(e.shards[0].strs.recs.own); (own > 0) != (name != "pmem") {
			t.Errorf("%s: %d own allocations", name, own)
		}
		if err := checkBooks(e); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for key := range keys {
			e.Del(key)
		}
		if st := e.Stats(); st.MemBytes != 0 || st.PayloadBytes != 0 || st.FreeBytes != 0 || st.PMemUsed != 0 {
			t.Errorf("%s: emptied engine keeps %+v", name, st)
		}
	}
}

// FuzzRecordHeader feeds the round trip (flags, key length, value length,
// deadline) tuples: any key length on either side of the header byte's
// limit, values into the own-allocation range.
func FuzzRecordHeader(f *testing.F) {
	f.Add(byte(0), uint16(14), uint16(18), int64(0))
	f.Add(byte(flagCompressed), uint16(maxShortKey), uint16(127), int64(1))
	f.Add(byte(flagPMem), uint16(maxShortKey+1), uint16(128), int64(-1))
	f.Add(byte(flagCompressed|flagPMem), uint16(16384), uint16(1100), int64(1)<<62)
	f.Add(byte(0), uint16(0), uint16(0), int64(0x5555))
	f.Fuzz(func(t *testing.T, flags byte, klen, vlen uint16, deadline int64) {
		key := strings.Repeat("\xff", int(klen))
		if klen > 1 {
			key = key[:klen/2] + string(rune('a'+klen%26)) + key[klen/2+1:]
		}
		if err := recordRoundTrip(key, int(vlen), flags&(flagCompressed|flagPMem), deadline); err != nil {
			t.Fatal(err)
		}
	})
}
