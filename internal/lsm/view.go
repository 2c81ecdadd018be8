package lsm

import (
	"bytes"
	"sync/atomic"
)

// version is an immutable snapshot of the table hierarchy: the manifest
// (level metadata) plus an open reader per table. Versions are installed
// copy-on-write by flush and compaction; readers capture the current one
// with a single refcount increment and then do all bloom/index/block I/O
// against it with no DB lock held.
//
// Ownership protocol: a version holds one reference on every tableReader
// in its map, and the map holds the tables its manifest names. Constructing
// a successor re-refs the readers it keeps and takes ownership of (does not
// re-ref) the ones it adds, so releasing the predecessor drops exactly the
// removed readers. When a reader's count
// reaches zero its file handle closes, and — if it was marked obsolete by
// a compaction — the table file is deleted. In-flight reads therefore keep
// compacted-away tables alive (and on disk) until the last snapshot using
// them is released.
type version struct {
	man     *manifest
	readers map[uint64]*tableReader
	refs    atomic.Int64
}

// newVersion takes ownership of one reference per reader in readers.
func newVersion(man *manifest, readers map[uint64]*tableReader) *version {
	v := &version{man: man, readers: readers}
	v.refs.Store(1)
	return v
}

// successor builds the next version: a reader for every table man names,
// taken from add (whose initial references are transferred in) or else kept
// from v (and re-referenced). Tables man no longer names are left behind
// with v. Caller holds db.mu and still owns the predecessor's reference
// (release it after the swap).
func (v *version) successor(man *manifest, add map[uint64]*tableReader) *version {
	readers := make(map[uint64]*tableReader, len(v.readers)+len(add))
	for _, lvl := range man.Levels {
		for _, t := range lvl {
			if r := add[t.Num]; r != nil {
				readers[t.Num] = r
			} else if r := v.readers[t.Num]; r != nil {
				r.ref()
				readers[t.Num] = r
			}
		}
	}
	return newVersion(man, readers)
}

func (v *version) ref() { v.refs.Add(1) }

func (v *version) unref() {
	if v.refs.Add(-1) == 0 {
		for _, r := range v.readers {
			r.unref()
		}
	}
}

// view is one read snapshot: the active memtable, the sealed (immutable)
// memtables oldest-first, and the table version — everything a
// Get/MultiGet/Scan needs, captured under db.mu in O(1) and then used
// entirely lock-free. Memtables need no refcount (they hold no file
// handles; the GC keeps them alive), tables are pinned via the version.
//
// Isolation: the table hierarchy and the sealed memtables are truly
// frozen, but v.mem references the LIVE active memtable, which updates
// keys in place — so writes committed after capture may (or may not)
// become visible, and a reader racing an Apply can observe a prefix of
// that batch. This matches the seed's semantics (its per-key storage
// batch loop had no cross-key isolation either); batch atomicity is a
// crash-recovery guarantee (one WAL record), not reader isolation. What
// the view does guarantee: no read ever blocks on — or is blocked by — a
// flush, a compaction, or a WAL fsync, and the table set cannot change
// mid-read.
type view struct {
	mem *memtable
	imm []*memtable // oldest first
	ver *version
}

// acquireView captures the current snapshot. Release it when done.
func (db *DB) acquireView() (*view, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, ErrDBClosed
	}
	v := &view{mem: db.mem, imm: db.imm, ver: db.current}
	v.ver.ref()
	db.mu.RUnlock()
	return v, nil
}

func (v *view) release() { v.ver.unref() }

// memGet searches the memtables newest-first (active, then sealed ones
// from newest to oldest). The first hit wins: sequence numbers increase
// monotonically across memtable generations.
func (v *view) memGet(key []byte) (memEntry, bool) {
	if e, ok := v.mem.sl.get(key); ok {
		return e, true
	}
	for i := len(v.imm) - 1; i >= 0; i-- {
		if e, ok := v.imm[i].sl.get(key); ok {
			return e, true
		}
	}
	return memEntry{}, false
}

// get resolves key against the full snapshot; it is the one level walk.
// Get passes its == nil and probes each table with a fresh iterator;
// MultiGet passes one iterator per table, shared by its ascending keys.
// The returned entry's value may alias memtable or block-cache memory —
// callers copy before returning anything to the user (the DB.Get/MultiGet
// contract).
func (v *view) get(key []byte, its map[uint64]*tableIterator) (memEntry, bool, error) {
	if e, ok := v.memGet(key); ok {
		return e, true, nil
	}
	// L0: overlapping tables — consult all, keep the highest sequence.
	var best memEntry
	var found bool
	for _, meta := range v.ver.man.Levels[0] {
		r := v.ver.readers[meta.Num]
		if r == nil {
			continue
		}
		if bytes.Compare(key, meta.Smallest) < 0 || bytes.Compare(key, meta.Largest) > 0 {
			continue
		}
		e, ok, err := probe(r, key, its)
		if err != nil {
			return memEntry{}, false, err
		}
		if ok && (!found || e.seq > best.seq) {
			best, found = e, true
		}
	}
	if found {
		return best, true, nil
	}
	// L1+: non-overlapping — at most one candidate table per level.
	for l := 1; l < len(v.ver.man.Levels); l++ {
		for _, meta := range v.ver.man.Levels[l] {
			if bytes.Compare(key, meta.Smallest) < 0 || bytes.Compare(key, meta.Largest) > 0 {
				continue
			}
			r := v.ver.readers[meta.Num]
			if r == nil {
				continue
			}
			e, ok, err := probe(r, key, its)
			if err != nil {
				return memEntry{}, false, err
			}
			if ok {
				return e, true, nil
			}
			break // non-overlapping: no other table in this level can match
		}
	}
	return memEntry{}, false, nil
}

// probe looks key up in table r: through r's iterator in its, made on
// first use, or through a fresh one when its is nil.
func probe(r *tableReader, key []byte, its map[uint64]*tableIterator) (memEntry, bool, error) {
	if its == nil {
		return r.get(key)
	}
	it := its[r.meta.Num]
	if it == nil {
		it = r.iter()
		its[r.meta.Num] = it
	}
	return it.get(key)
}
