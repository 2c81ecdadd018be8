package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tierbase/internal/compress"
	"tierbase/internal/pmem"
)

// recordRoundTrip writes the record of (key, a vlen-byte value of these
// flags), bare (its body alone, its header byte given by the view) or not,
// and takes it through everything the engine does to one: recordLen is the
// bytes writeRecord writes, one more than writeBody's, and parse reads
// back, hasKey tells the key from its neighbours, withDeadline moves it to
// a slot with its header byte and a TTL and setDeadline rewrites that in
// place, neither disturbing key or value. A compressed value is
// tailCompressor's encoding of vlen bytes, which the record measures with
// the codec's Len: only a raw value in DRAM carries its length.
func recordRoundTrip(key string, vlen int, flags byte, deadline int64, bare bool) error {
	st := staged{flags: flags, val: make([]byte, vlen)}
	for i := range st.val {
		st.val[i] = byte(i*7+len(key)) | 1
	}
	if flags&flagCompressed != 0 {
		st.val = tailCompressor{}.Compress(st.val)
	}
	want := st.val
	if flags&flagPMem != 0 {
		st.ref = pmem.Ref{Off: int64(vlen)<<20 + 5, Len: int32(vlen)}
		want = nil
	}
	ix := &index{codec: tailCompressor{}}
	n, ref := recordLen([]byte(key), st), uint32(0)
	const slack = 16 // after the record, as in a page: writing it must leave that alone
	buf := bytes.Repeat([]byte{0xA5}, n+9+slack)
	if bare {
		n, ref = n-1, bareRef
		writeBody(buf[:n], []byte(key), st)
	} else {
		writeRecord(buf[:n], []byte(key), st)
	}
	// A page slot runs past its record: nothing may rely on its length.
	rec := view(buf, ref, header([]byte(key), flags))

	check := func(what string, slot []byte, r record, size int, flags byte, deadline int64) error {
		f := ix.parse(r)
		// hasKey, and for a key the header byte has room for hasShortKey with it.
		agree := true
		has := func(k string) bool {
			got := r.hasKey([]byte(k))
			agree = agree && (len(k) > maxShortKey || r.hasShortKey([]byte(k)) == got)
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
		case lengthed(flags) && r.headLen()+f.head+uvarintLen(uint64(len(f.val)))+len(f.val) != size:
			return fmt.Errorf("%s: head %d + length + value of %d bytes is not the record's %d", what, f.head, len(f.val), size)
		case !lengthed(flags) && r.headLen()+f.head+len(f.val) != size:
			return fmt.Errorf("%s: head %d + value of %d bytes, no length, is not the record's %d", what, f.head, len(f.val), size)
		case want != nil && !bytes.Equal(f.val, want):
			return fmt.Errorf("%s: value changed", what)
		case want == nil && f.ref() != st.ref:
			return fmt.Errorf("%s: ref %+v, want %+v", what, f.ref(), st.ref)
		case payload(f.flags, len(f.key), len(f.val)) != payload(st.flags, len(key), len(st.val)):
			return fmt.Errorf("%s: payload %d, staged value says %d", what, payload(f.flags, len(f.key), len(f.val)), payload(st.flags, len(key), len(st.val)))
		case !has(key) || has(key+"x") || has("x"+key):
			return fmt.Errorf("%s: hasKey does not tell %q from a longer key", what, key)
		case len(key) > 0 && (has(key[1:]) || has(key[:len(key)-1]+"\x00")):
			return fmt.Errorf("%s: hasKey does not tell %q from its neighbours", what, key)
		case !agree:
			return fmt.Errorf("%s: hasShortKey and hasKey disagree about the record of %q", what, key)
		}
		for i, b := range slot[size:] {
			if b != 0xA5 {
				return fmt.Errorf("%s: byte %d past the record's %d written", what, i, size)
			}
		}
		return nil
	}
	if err := check("written", buf, rec, n, flags, 0); err != nil {
		return err
	}
	size := n - rec.headLen() + 1 + 8 // the header byte, always, and the deadline
	slot := bytes.Repeat([]byte{0xA5}, size+slack)
	rec.withDeadline(slot, ix.parse(rec), deadline)
	dst := view(slot, 0, 0)
	if err := check("withDeadline", slot, dst, size, flags|flagTTL, deadline); err != nil {
		return err
	}
	dst.setDeadline(deadline ^ 0x5555)
	if err := check("setDeadline", slot, dst, size, flags|flagTTL, deadline^0x5555); err != nil {
		return err
	}
	dst.setDeadline(0) // Persist: the slot stays, the key has no deadline
	return check("cleared", slot, dst, size, flags|flagTTL, 0)
}

// TestRecordLayout covers both forms of the key length (in the header
// byte up to maxShortKey bytes, a uvarint past that, one and two bytes of
// it), one- and two-byte value lengths, a record past the slab limit, every
// combination of flags, and each with and without its header byte.
func TestRecordLayout(t *testing.T) {
	for _, klen := range []int{0, 1, 14, 15, 16, 30, 31, 32, 127, 128, 300} {
		key := strings.Repeat("k", klen)
		if klen > 0 {
			key = key[:klen-1] + "z"
		}
		for _, vlen := range []int{0, 1, 127, 128, 1100} {
			for flags := byte(0); flags <= flagCompressed|flagPMem; flags++ {
				for _, bare := range []bool{false, true} {
					if err := recordRoundTrip(key, vlen, flags, 1<<62+12345, bare); err != nil {
						t.Errorf("klen %d vlen %d flags %#x bare %v: %v", klen, vlen, flags, bare, err)
					}
				}
			}
		}
	}
	// What the ledger's hit-read key costs: its key packed (k%015d is 3
	// bytes under the model its stripes learn: its shape's) and its stored
	// value, with no header byte, as its stripe knows the byte; a raw value,
	// in an engine with no codec, adds its length. With a codec a raw value
	// is not the plain form, and keeps its header byte.
	k := pack(ledgerModel, "k000000000123456")
	for _, c := range []struct {
		codec compress.Compressor
		st    staged
		want  int
	}{
		{tailCompressor{}, staged{flags: flagCompressed, val: make([]byte, 13)}, 3 + 13},
		{nil, staged{val: make([]byte, 18)}, 3 + 1 + 18},
		{tailCompressor{}, staged{val: make([]byte, 18)}, 1 + 3 + 1 + 18},
		{nil, staged{flags: flagTTL, val: make([]byte, 18)}, 1 + 3 + 8 + 1 + 18},
	} {
		ix := &index{codec: c.codec, model: ledgerModel}
		got := recordLen(k, c.st)
		if ix.bare(k, c.st.flags) {
			got--
		}
		if got != c.want {
			t.Errorf("a 16 B key with a %d B value of flags %#x (codec %v) is a %d B record, want %d", len(c.st.val), c.st.flags, c.codec != nil, got, c.want)
		}
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
		for _, klen := range []int{0, 1, 14, 15, 16, 30, 31, 32, 127, 128, 300} {
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
// limit, values into the own-allocation range, every placement of the
// value: raw with its length, compressed and measured by the stub codec's
// Len, and a PMem ref, neither with a length, and the record with its
// header byte or bare (flags' top bit), read through a view that takes the
// byte from outside the slot.
func FuzzRecordHeader(f *testing.F) {
	f.Add(byte(0), uint16(14), uint16(18), int64(0))
	f.Add(byte(flagCompressed), uint16(maxShortKey), uint16(127), int64(1))
	f.Add(byte(flagPMem), uint16(maxShortKey+1), uint16(128), int64(-1))
	f.Add(byte(flagCompressed|flagPMem), uint16(16384), uint16(1100), int64(1)<<62)
	f.Add(byte(0), uint16(0), uint16(0), int64(0x5555))
	f.Add(byte(0x80|flagCompressed), uint16(3), uint16(13), int64(0)) // the ledger's hit-read record, bare
	f.Add(byte(0x80), uint16(maxShortKey+1), uint16(300), int64(7))
	f.Fuzz(func(t *testing.T, flags byte, klen, vlen uint16, deadline int64) {
		key := strings.Repeat("\xff", int(klen))
		if klen > 1 {
			key = key[:klen/2] + string(rune('a'+klen%26)) + key[klen/2+1:]
		}
		if err := recordRoundTrip(key, int(vlen), flags&(flagCompressed|flagPMem), deadline, flags&0x80 != 0); err != nil {
			t.Fatal(err)
		}
	})
}
