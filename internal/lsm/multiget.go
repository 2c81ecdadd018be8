package lsm

import (
	"bytes"
	"sort"
)

// MultiGet resolves many keys against one snapshot view (frozen table
// hierarchy; live active memtable — see view for the isolation contract)
// in a single walk of the level hierarchy. It returns values and presence
// flags aligned with keys: found[i] reports whether keys[i] exists (a
// present empty value is found with an empty, non-nil slice). All
// returned values are private copies — they never alias memtable or
// block-cache memory.
//
// Compared with len(keys) sequential Gets this saves: one snapshot
// acquisition instead of N, one sort so each table's index is walked
// front-to-back once, and — the big one — one block decode shared by all
// keys that land in the same data block, instead of a bloom+index+block
// probe per key per table.
func (db *DB) MultiGet(keys [][]byte) (vals [][]byte, found []bool, err error) {
	v, err := db.acquireView()
	if err != nil {
		return nil, nil, err
	}
	defer v.release()
	db.multiGets.Add(1)

	n := len(keys)
	entries := make([]memEntry, n)
	resolved := make([]bool, n) // key's newest version located (set OR tombstone)

	// Memtables first: newest data, cheap lookups.
	pending := make([]int, 0, n)
	for i, k := range keys {
		if e, ok := v.memGet(k); ok {
			entries[i], resolved[i] = e, true
		} else {
			pending = append(pending, i)
		}
	}

	if len(pending) > 0 && v.ver.man != nil {
		// Sort the unresolved indices by key so every table probe walks
		// its index and blocks monotonically. Duplicate keys sit adjacent
		// and share the same cursor position.
		sort.Slice(pending, func(a, b int) bool {
			return bytes.Compare(keys[pending[a]], keys[pending[b]]) < 0
		})

		// L0: tables overlap, so every table sees every still-unresolved
		// key and the highest sequence wins across tables.
		if len(v.ver.man.Levels[0]) > 0 {
			l0seen := make([]bool, n)
			for _, meta := range v.ver.man.Levels[0] {
				r := v.ver.readers[meta.Num]
				if r == nil {
					continue
				}
				err := r.multiGet(keys, pending, meta, func(i int, e memEntry) {
					if !l0seen[i] || e.seq > entries[i].seq {
						entries[i], l0seen[i] = e, true
					}
				})
				if err != nil {
					return nil, nil, db.noteReadErr(err)
				}
			}
			next := pending[:0]
			for _, i := range pending {
				if l0seen[i] {
					resolved[i] = true
				} else {
					next = append(next, i)
				}
			}
			pending = next
		}

		// L1+: non-overlapping, so a key matches at most one table per
		// level and the first hit down the hierarchy is the newest.
		for l := 1; l < len(v.ver.man.Levels) && len(pending) > 0; l++ {
			for _, meta := range v.ver.man.Levels[l] {
				if len(pending) == 0 {
					break
				}
				r := v.ver.readers[meta.Num]
				if r == nil {
					continue
				}
				err := r.multiGet(keys, pending, meta, func(i int, e memEntry) {
					entries[i], resolved[i] = e, true
				})
				if err != nil {
					return nil, nil, db.noteReadErr(err)
				}
				next := pending[:0]
				for _, i := range pending {
					if !resolved[i] {
						next = append(next, i)
					}
				}
				pending = next
			}
		}
	}

	vals = make([][]byte, n)
	found = make([]bool, n)
	for i := range keys {
		if !resolved[i] || entries[i].kind == kindDelete {
			continue
		}
		found[i] = true
		cp := make([]byte, len(entries[i].value))
		copy(cp, entries[i].value)
		vals[i] = cp
	}
	return vals, found, nil
}

// multiGet probes this table for the given key indices (sorted by key,
// ascending). For each hit it calls visit(i, entry); the entry's value may
// alias block (cache) memory — callers copy before returning to users.
// Probes advance a single cursor through the table's index and blocks, so
// adjacent keys in the same data block cost one decode total.
func (t *tableReader) multiGet(keys [][]byte, idxs []int, meta tableMeta, visit func(i int, e memEntry)) error {
	cur := tableCursor{t: t}
	for _, i := range idxs {
		key := keys[i]
		if bytes.Compare(key, meta.Smallest) < 0 {
			continue
		}
		if bytes.Compare(key, meta.Largest) > 0 {
			break // keys are ascending: nothing later can be in range
		}
		if !t.bloom.MayContain(key) {
			continue
		}
		e, ok, err := cur.seek(key)
		if err != nil {
			return err
		}
		if ok {
			visit(i, e)
		}
	}
	return nil
}

// tableCursor is a forward-only point-lookup cursor over one table:
// seek(key) must be called with non-decreasing keys. It remembers the
// current block and decode position, so a run of keys inside one block is
// served by a single decode pass.
type tableCursor struct {
	t        *tableReader
	blockIdx int  // next index position to consider
	loaded   bool // bi holds a decoded block at position blockIdx-1... see seek
	bi       blockIter
	ent      memEntry // last decoded entry (peeked)
	entKey   []byte
	entOK    bool
}

// seek positions at key and reports whether the table contains it.
func (c *tableCursor) seek(key []byte) (memEntry, bool, error) {
	// Fast path: the peeked entry from a previous probe is still >= key
	// (equal keys, or the previous probe overshot into this key's range).
	if c.entOK {
		if cmp := bytes.Compare(c.entKey, key); cmp == 0 {
			return c.ent, true, nil
		} else if cmp > 0 {
			return memEntry{}, false, nil
		}
	}
	if !c.loaded || !c.blockMayContain(key) {
		// Advance the index to the block that may hold key. Search only
		// the remaining index range — keys arrive sorted.
		rest := c.t.index[c.blockIdx:]
		j := sort.Search(len(rest), func(i int) bool {
			return bytes.Compare(rest[i].lastKey, key) >= 0
		})
		if j == len(rest) {
			c.loaded, c.entOK = false, false
			c.blockIdx = len(c.t.index)
			return memEntry{}, false, nil
		}
		c.blockIdx += j
		blk, err := c.t.readBlock(c.blockIdx, nil)
		if err != nil {
			return memEntry{}, false, err
		}
		c.bi = blockIter{data: blk}
		c.loaded = true
		c.entOK = false
		c.blockIdx++ // consumed: future searches start past this block
	}
	// Scan forward inside the decoded block.
	for c.bi.next() {
		cmp := bytes.Compare(c.bi.ikey, key)
		if cmp < 0 {
			continue
		}
		c.ent = memEntry{seq: c.bi.seq, kind: c.bi.kind, value: c.bi.val}
		c.entKey = c.bi.ikey
		c.entOK = true
		return c.ent, cmp == 0, nil
	}
	if c.bi.err != nil {
		return memEntry{}, false, c.bi.err
	}
	// Block exhausted without reaching key: key falls in the gap between
	// this block's last entry and the next block's range.
	c.entOK = false
	return memEntry{}, false, nil
}

// blockMayContain reports whether the currently decoded block can still
// contain key (key <= the block's index lastKey).
func (c *tableCursor) blockMayContain(key []byte) bool {
	return bytes.Compare(key, c.t.index[c.blockIdx-1].lastKey) <= 0
}
