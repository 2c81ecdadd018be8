package lsm

import (
	"bytes"
	"container/heap"
	"os"
	"sort"
)

// compactionLoop is the single background compactor goroutine ("remote
// compaction" analog: merging happens off the write path). It drains
// trigger signals and runs one compaction round per signal until the
// channel is closed by Close.
func (db *DB) compactionLoop() {
	defer close(db.compactDone)
	for range db.compactCh {
		for db.compactOnce() {
		}
	}
}

// compactOnce picks and runs one compaction; reports whether work was done.
// Compactions must never run concurrently (two racing merges could pick
// overlapping inputs and resurrect deleted keys), so the whole round is
// serialized: the background loop and CompactAll both funnel through here.
func (db *DB) compactOnce() bool {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	switch db.opts.Compaction {
	case SizeTiered:
		return db.compactSizeTiered()
	default:
		return db.compactLeveled()
	}
}

// levelMultiplier is the ratio of each level's byte budget to the one
// above it, from L1 down.
const levelMultiplier = 10

// levelLimit returns the byte budget for level l (l >= 1).
func (db *DB) levelLimit(l int) int64 {
	limit := db.opts.BaseLevelBytes
	for i := 1; i < l; i++ {
		limit *= levelMultiplier
	}
	return limit
}

// pickLeveled chooses inputs under db.mu; returns (inputs, outLevel, ok).
func (db *DB) pickLeveled() (inputs []tableMeta, outLevel int, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, 0, false
	}
	man := db.current.man
	// L0 -> L1 when too many overlapping runs accumulate.
	if len(man.Levels[0]) >= db.opts.L0CompactionTrigger {
		inputs = append(inputs, man.Levels[0]...)
		lo, hi := keyRange(inputs)
		for _, t := range man.Levels[1] {
			if overlaps(t, lo, hi) {
				inputs = append(inputs, t)
			}
		}
		return inputs, 1, true
	}
	// Ln -> Ln+1 when a level exceeds its budget.
	for l := 1; l < len(man.Levels)-1; l++ {
		if man.totalBytes(l) <= db.levelLimit(l) || len(man.Levels[l]) == 0 {
			continue
		}
		// Levels >= 1 are kept sorted by smallest key, so this is the
		// level's lowest key range (not its oldest file).
		pick := man.Levels[l][0]
		inputs = append(inputs, pick)
		for _, t := range man.Levels[l+1] {
			if overlaps(t, pick.Smallest, pick.Largest) {
				inputs = append(inputs, t)
			}
		}
		return inputs, l + 1, true
	}
	return nil, 0, false
}

// compactLeveled runs one leveled compaction; returns true if work was done.
//
// A pick from level >= 1 that found nothing overlapping below it is one
// table, and merging one table rewrites it byte for byte. It is moved
// instead: a manifest edit puts the same file, under the same number, in
// the next level. The bottom level is the exception, because it is where
// tombstones are dropped, and only a merge drops them.
func (db *DB) compactLeveled() bool {
	inputs, outLevel, ok := db.pickLeveled()
	if !ok {
		return false
	}
	bottom := outLevel == db.opts.MaxLevels-1
	if len(inputs) == 1 && outLevel > 1 && !bottom {
		return db.installMove(inputs[0], outLevel)
	}
	return db.merge(inputs, outLevel, bottom, db.opts.TargetFileBytes)
}

// compactSizeTiered merges the N smallest similar-sized runs (all in L0)
// into one run. The output is one table, never cut at TargetFileBytes: a
// cut merge of N runs can write N tables back, and L0 would then never
// fall below the threshold.
func (db *DB) compactSizeTiered() bool {
	const minThreshold = 4
	db.mu.RLock()
	if db.closed || len(db.current.man.Levels[0]) < minThreshold {
		db.mu.RUnlock()
		return false
	}
	tables := append([]tableMeta(nil), db.current.man.Levels[0]...)
	db.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Size < tables[j].Size })
	inputs := tables[:minThreshold]
	dropTombstones := len(inputs) == len(tables)
	return db.merge(inputs, 0, dropTombstones, 0)
}

// merge merge-sorts the inputs into new tables cut at target bytes (0: one
// table) and installs them in outLevel in the inputs' place; it reports
// whether it did. A failed round is abandoned and the inputs stay valid.
// It runs without holding db.mu; a version reference pins the input
// readers for the duration of the merge.
func (db *DB) merge(inputs []tableMeta, outLevel int, dropTombstones bool, target int64) bool {
	db.mu.RLock()
	ver := db.current
	ver.ref()
	db.mu.RUnlock()
	defer ver.unref()
	iters := make([]internalIter, 0, len(inputs))
	remove := make(map[uint64]bool, len(inputs))
	for _, meta := range inputs {
		r := ver.readers[meta.Num]
		if r == nil {
			return false
		}
		iters = append(iters, r.compactionIter())
		remove[meta.Num] = true
	}
	outputs, err := db.writeTables(newMergeIter(iters, nil), dropTombstones, target)
	return err == nil && db.install(edit{remove: remove, add: outputs, level: outLevel}) == nil
}

// writeTables writes it, in its key order, to new tables: the one table
// writer, for flushes (a sealed memtable's own iterator, one table) and
// merges (a merge iterator; a leveled merge cuts at TargetFileBytes). It
// drops tombstones when asked and starts a new table once the current one
// holds target bytes of entries; target 0 writes one table. No input
// writes no table. On error the tables written so far are abandoned and
// removed.
func (db *DB) writeTables(it entryIter, dropTombstones bool, target int64) ([]tableMeta, error) {
	var outputs []tableMeta
	var tb *tableBuilder
	var tbNum uint64
	var tbBytes int64
	fail := func(err error) ([]tableMeta, error) {
		if tb != nil {
			tb.abandon()
		}
		for _, m := range outputs {
			os.Remove(tableFileName(db.opts.Dir, m.Num))
		}
		return nil, err
	}
	finish := func() error {
		meta, err := tb.finish(tbNum)
		if err != nil {
			return err
		}
		outputs = append(outputs, meta)
		tb, tbBytes = nil, 0
		return nil
	}
	for it.next() {
		e := it.entry()
		if dropTombstones && e.kind == kindDelete {
			continue
		}
		if tb == nil {
			tbNum = db.allocFileNum()
			var err error
			if tb, err = newTableBuilder(tableFileName(db.opts.Dir, tbNum), db.opts.BlockBytes); err != nil {
				return fail(err)
			}
		}
		k := it.key()
		if err := tb.add(k, e); err != nil {
			return fail(err)
		}
		tbBytes += int64(len(k) + len(e.value) + 16)
		if target > 0 && tbBytes >= target {
			if err := finish(); err != nil {
				return fail(err)
			}
		}
	}
	if err := it.err(); err != nil {
		return fail(err)
	}
	if tb != nil {
		if err := finish(); err != nil {
			return fail(err)
		}
	}
	return outputs, nil
}

// edit is one version change: the tables numbered in remove leave their
// levels and add joins level. A flush's edit names the memtable it wrote:
// installing it advances LastSeq to the memtable's and takes it off
// db.imm.
type edit struct {
	remove  map[uint64]bool
	add     []tableMeta
	level   int
	flushed *memtable
}

// installEdit saves and installs the successor version that e makes;
// readers holds an open reader for each of e.add that is a new file. It
// returns the version it replaced, which the caller releases, or an error
// (ErrDBClosed on a closed DB) if nothing was installed.
//
// A flushed memtable leaves db.imm in the same critical section as the
// version swap, so a snapshot view finds its entries in one place or the
// other, never in neither.
func (db *DB) installEdit(e edit, readers map[uint64]*tableReader) (*version, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrDBClosed
	}
	cur := db.current
	newMan := cur.man.clone()
	newMan.replace(e.remove, e.add, e.level)
	newMan.NextFile = db.nextFile.Load()
	if e.flushed != nil {
		newMan.LastSeq = e.flushed.maxSeq
	}
	if err := newMan.save(db.opts.Dir); err != nil {
		return nil, err
	}
	db.current = cur.successor(newMan, readers)
	if e.flushed != nil {
		db.imm = append([]*memtable(nil), db.imm[1:]...)
		db.flushCond.Broadcast()
	}
	return cur, nil
}

// install installs e, whose added tables are all newly written by a flush
// or a merge: it opens their readers first (fresh files, no races) and, if
// the install fails, closes them and deletes the files. The tables e
// removes are marked obsolete: their files are deleted when the last
// snapshot view referencing them is released (or immediately, if no read
// is in flight). The round and the bytes it wrote are counted here, after
// the install, as a flush's or as a merge's.
func (db *DB) install(e edit) error {
	readers := make(map[uint64]*tableReader, len(e.add))
	discard := func(err error) error {
		for _, r := range readers {
			r.unref()
		}
		for _, m := range e.add {
			os.Remove(tableFileName(db.opts.Dir, m.Num))
		}
		return err
	}
	for _, m := range e.add {
		r, err := openTable(db.opts.Dir, m, db.cache)
		if err != nil {
			return discard(err)
		}
		readers[m.Num] = r
	}
	prev, err := db.installEdit(e, readers)
	if err != nil {
		return discard(err)
	}
	// prev still holds the removed tables' readers, so none can close
	// before it is marked.
	for num := range e.remove {
		prev.readers[num].markObsolete()
		if db.cache != nil {
			db.cache.dropFile(num)
		}
	}
	prev.unref()
	var written int64
	for _, m := range e.add {
		written += m.Size
	}
	if e.flushed != nil {
		db.flushes.Add(1)
		db.flushBytes.Add(written)
	} else {
		db.compactions.Add(1)
		db.compactionBytes.Add(written)
	}
	return nil
}

// installMove puts table t, wherever it was, in outLevel. Nothing else
// changes hands: the successor holds the same open reader, the file keeps
// its number and the block cache keeps its blocks.
func (db *DB) installMove(t tableMeta, outLevel int) bool {
	prev, err := db.installEdit(edit{remove: map[uint64]bool{t.Num: true}, add: []tableMeta{t}, level: outLevel}, nil)
	if err != nil {
		return false
	}
	prev.unref()
	db.compactions.Add(1)
	db.moves.Add(1)
	return true
}

// CompactAll drains pending compactions synchronously (tests, benches).
func (db *DB) CompactAll() {
	for db.compactOnce() {
	}
}

func keyRange(tables []tableMeta) (lo, hi []byte) {
	for i, t := range tables {
		if i == 0 {
			lo, hi = t.Smallest, t.Largest
			continue
		}
		if bytes.Compare(t.Smallest, lo) < 0 {
			lo = t.Smallest
		}
		if bytes.Compare(t.Largest, hi) > 0 {
			hi = t.Largest
		}
	}
	return lo, hi
}

func overlaps(t tableMeta, lo, hi []byte) bool {
	return bytes.Compare(t.Largest, lo) >= 0 && bytes.Compare(t.Smallest, hi) <= 0
}

// --- merge iterator, newest (highest seq) wins ---

// entryIter yields entries in ascending key order: what writeTables
// writes. err reports the read error that ended the iteration, if one did.
type entryIter interface {
	next() bool
	key() []byte
	entry() memEntry
	err() error
}

// internalIter is the common shape of slIterator and tableIterator: an
// entryIter that can also seek.
type internalIter interface {
	entryIter
	seekGE(key []byte) bool
}

var (
	_ internalIter = (*slIterator)(nil)
	_ internalIter = (*tableIterator)(nil)
	_ entryIter    = (*mergeIter)(nil)
)

type mergeSource struct {
	it internalIter
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].it.key(), h[j].it.key())
	if c != 0 {
		return c < 0
	}
	// Same key: higher sequence first so the newest version surfaces first.
	return h[i].it.entry().seq > h[j].it.entry().seq
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeIter yields one entry per distinct key (the newest version),
// in ascending key order, across multiple table iterators. key() and
// entry().value are the iterator's own two buffers, overwritten by the next
// call of next: a caller that keeps either copies it (tableBuilder.add and
// Scan both do).
type mergeIter struct {
	h       mergeHeap
	curKey  []byte
	curEnt  memEntry
	lastErr error
}

// newMergeIter positions every source at its first entry, or at its first
// entry >= start when start is non-nil.
func newMergeIter(iters []internalIter, start []byte) *mergeIter {
	m := &mergeIter{}
	for _, it := range iters {
		var ok bool
		if start != nil {
			ok = it.seekGE(start)
		} else {
			ok = it.next()
		}
		if ok {
			m.h = append(m.h, &mergeSource{it: it})
		} else if err := it.err(); err != nil {
			m.lastErr = err
		}
	}
	heap.Init(&m.h)
	return m
}

func (m *mergeIter) next() bool {
	if m.lastErr != nil || m.h.Len() == 0 {
		return false
	}
	// The copy is needed: a source's key and value may not outlive its next
	// step (compactionIter), and every source on this key steps below.
	src := m.h[0]
	m.curKey = append(m.curKey[:0], src.it.key()...)
	val := m.curEnt.value[:0]
	m.curEnt = src.it.entry()
	m.curEnt.value = append(val, m.curEnt.value...)
	// Advance every source sitting on this key (duplicates: older versions).
	for m.h.Len() > 0 && bytes.Equal(m.h[0].it.key(), m.curKey) {
		s := m.h[0]
		if s.it.next() {
			heap.Fix(&m.h, 0)
		} else {
			if err := s.it.err(); err != nil {
				m.lastErr = err
				return false
			}
			heap.Pop(&m.h)
		}
	}
	return true
}

func (m *mergeIter) key() []byte     { return m.curKey }
func (m *mergeIter) entry() memEntry { return m.curEnt }
func (m *mergeIter) err() error      { return m.lastErr }
