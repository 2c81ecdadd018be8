package lsm

import (
	"bytes"
)

// KV is one key-value pair returned by Scan.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit live pairs with start <= key < end, in key
// order. A nil end means unbounded; limit <= 0 means no limit. The scan
// runs against a captured view (frozen table hierarchy + live active
// memtable; see view for the isolation contract) and holds no DB lock
// during its block I/O, so it never stalls writers or flushes — writes
// committed while the scan runs may or may not appear. It is intended for
// bounded range reads (wide-column row scans, verification sweeps), not
// full-database dumps under write load. A read error ends the scan: the
// pairs read so far come back with it, and a bad block counts in
// Stats.BadBlocks as it does for Get.
func (db *DB) Scan(start, end []byte, limit int) ([]KV, error) {
	v, err := db.acquireView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	iters := make([]internalIter, 0, 2+len(v.imm)+len(v.ver.readers))
	iters = append(iters, v.mem.sl.iter())
	for _, m := range v.imm {
		iters = append(iters, m.sl.iter())
	}
	for _, lvl := range v.ver.man.Levels {
		for _, meta := range lvl {
			if r := v.ver.readers[meta.Num]; r != nil {
				iters = append(iters, r.iter())
			}
		}
	}
	m := newMergeIter(iters, start)
	var out []KV
	for m.next() {
		if end != nil && bytes.Compare(m.key(), end) >= 0 {
			break
		}
		e := m.entry()
		if e.kind == kindDelete {
			continue
		}
		out = append(out, KV{
			Key:   append([]byte(nil), m.key()...),
			Value: append([]byte(nil), e.value...),
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, db.noteReadErr(m.err())
}
