package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// stepOptions make a few hundred KB of 100 B values fill four levels.
func stepOptions(dir string) Options {
	return Options{
		Dir:                 dir,
		DisableWAL:          true,
		MemtableBytes:       4 << 10,
		L0CompactionTrigger: 2,
		BaseLevelBytes:      16 << 10,
		TargetFileBytes:     8 << 10,
	}
}

// loadUncompacted writes n ascending keys of generation gen into dir's L0
// and closes the DB with no compaction having run: reopened under
// stepOptions the compactor is idle (only a flush wakes it), so a test can
// take its rounds one at a time with compactOnce.
func loadUncompacted(t *testing.T, dir string, n, gen int) {
	t.Helper()
	opts := stepOptions(dir)
	opts.L0CompactionTrigger = 1 << 20
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Put(stepKey(i), stepVal(i, gen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func stepKey(i int) []byte { return []byte(fmt.Sprintf("mv%06d", i)) }
func stepVal(i, gen int) []byte {
	return append(bytes.Repeat([]byte{byte('a' + gen)}, 100), fmt.Sprint(i)...)
}

// shape is what a compaction round may change: the level of every table,
// the table files on disk and the next file number.
type shape struct {
	level map[uint64]int
	files []string
	next  uint64
}

func shapeOf(t *testing.T, db *DB) shape {
	t.Helper()
	s := shape{level: map[uint64]int{}, next: db.nextFile.Load()}
	db.mu.RLock()
	for l, lvl := range db.current.man.Levels {
		for _, m := range lvl {
			s.level[m.Num] = l
		}
	}
	db.mu.RUnlock()
	var err error
	if s.files, err = filepath.Glob(filepath.Join(db.opts.Dir, "*.sst")); err != nil {
		t.Fatal(err)
	}
	sort.Strings(s.files)
	return s
}

func checkStepKeys(t *testing.T, db *DB, n, gen int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if v, err := db.Get(stepKey(i)); err != nil || !bytes.Equal(v, stepVal(i, gen)) {
			t.Fatalf("key %s = %q, %v; want generation %d", stepKey(i), v, err, gen)
		}
	}
}

// TestCompactionMovesNoOverlapTable takes an ascending load through the
// levels one round at a time. A round that moved must have changed nothing
// but one table's level: the same file number one level down, the same
// .sst files on disk, no file number spent. Then an overwrite of the same
// keys makes every pick overlap the level below, and those rounds must
// merge. Every key reads back after each phase and after a reopen.
func TestCompactionMovesNoOverlapTable(t *testing.T) {
	const n = 1200 // 140 KB: L1 overflows into L2, L2 holds the rest
	dir := t.TempDir()
	loadUncompacted(t, dir, n, 0)
	db, err := Open(stepOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()

	for {
		before, st0 := shapeOf(t, db), db.Stats()
		if !db.compactOnce() {
			break
		}
		after, st1 := shapeOf(t, db), db.Stats()
		if st1.Compactions != st0.Compactions+1 {
			t.Fatalf("a round counted %d compactions", st1.Compactions-st0.Compactions)
		}
		if st1.Moves == st0.Moves {
			if st1.CompactionBytes == st0.CompactionBytes {
				t.Fatal("a round that did not move wrote no table")
			}
			continue
		}
		if st1.CompactionBytes != st0.CompactionBytes {
			t.Fatalf("a move wrote %d table bytes", st1.CompactionBytes-st0.CompactionBytes)
		}
		if after.next != before.next || fmt.Sprint(after.files) != fmt.Sprint(before.files) {
			t.Fatalf("a move changed the files on disk:\n%v (next %d)\n%v (next %d)", before.files, before.next, after.files, after.next)
		}
		changed := 0
		for num, l := range before.level {
			switch after.level[num] {
			case l:
			case l + 1:
				changed++
				if l < 1 {
					t.Fatalf("table %d moved out of L0", num)
				}
			default:
				t.Fatalf("table %d went from L%d to L%d", num, l, after.level[num])
			}
		}
		if changed != 1 || len(after.level) != len(before.level) {
			t.Fatalf("a move re-levelled %d tables (%d -> %d tables)", changed, len(before.level), len(after.level))
		}
	}
	st := db.Stats()
	if st.Moves == 0 || st.LevelFiles[2] == 0 {
		t.Fatalf("an ascending load moved nothing: %+v", st)
	}
	checkStepKeys(t, db, n, 0)

	// Reopen after the run of moves: the manifest alone says where the
	// moved tables are.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	loadUncompacted(t, dir, n, 1)
	if db, err = Open(stepOptions(dir)); err != nil {
		t.Fatal(err)
	}
	checkStepKeys(t, db, n, 1)

	// Generation 1 covers generation 0's key range: L0 merges into L1, and
	// L1's lowest table then has generation 0's lowest in L2 under it.
	before := db.Stats()
	for merges := 0; ; merges++ {
		st0 := db.Stats()
		if !db.compactOnce() {
			break
		}
		if st1 := db.Stats(); merges < 3 && st1.Moves != st0.Moves {
			t.Fatalf("round %d over an overlapping level moved", merges)
		}
	}
	if after := db.Stats(); after.CompactionBytes == before.CompactionBytes {
		t.Fatal("overlapping picks merged nothing")
	}
	checkStepKeys(t, db, n, 1)
}

// TestCompactionNeverMovesIntoBottomLevel: with three levels, L2 is where
// tombstones are dropped, so an L1 table with nothing under it is still
// merged into L2, and no tombstone gets there.
func TestCompactionNeverMovesIntoBottomLevel(t *testing.T) {
	const n = 1500
	dir := t.TempDir()
	opts := stepOptions(dir)
	opts.MaxLevels = 3
	db := testDB(t, opts)
	for i := 0; i < n; i++ {
		if err := db.Put(stepKey(i), stepVal(i, 0)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := db.Delete(stepKey(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.CompactAll()
	st := db.Stats()
	if st.Moves != 0 {
		t.Fatalf("%d tables were moved into the bottom level", st.Moves)
	}
	if st.LevelFiles[2] == 0 {
		t.Fatalf("nothing reached the bottom level: %+v", st)
	}
	db.mu.RLock()
	ver := db.current
	ver.ref()
	db.mu.RUnlock()
	defer ver.unref()
	for _, m := range ver.man.Levels[2] {
		it := ver.readers[m.Num].iter()
		for it.next() {
			if it.entry().kind == kindDelete {
				t.Fatalf("tombstone for %s in bottom-level table %d", it.key(), m.Num)
			}
		}
		if it.err() != nil {
			t.Fatal(it.err())
		}
	}
	for i := 0; i < n; i++ {
		_, err := db.Get(stepKey(i))
		if want := i%3 == 0; (err == ErrNotFound) != want || (err != nil && err != ErrNotFound) {
			t.Fatalf("key %s: %v (deleted: %v)", stepKey(i), err, want)
		}
	}
}

// TestCompactionScansLeaveBlockCacheAlone: a merge reads every block of its
// inputs once and they are about to be deleted, so it must not push what
// the foreground reads out of the block cache, nor count in its misses.
func TestCompactionScansLeaveBlockCacheAlone(t *testing.T) {
	opts := stepOptions(t.TempDir())
	opts.BlockCacheBytes = 32 << 10
	db := testDB(t, opts)
	// One table at the far end of the key space that nothing below touches.
	hot := []byte("zz-hot")
	// It has to be below L0, or the next L0 merge takes it with the rest.
	for i := 0; i < 20; i++ {
		db.Put([]byte(fmt.Sprintf("zz%04d", i)), stepVal(i, 0))
	}
	db.Flush()
	db.Put(hot, []byte("v"))
	db.Flush()
	db.CompactAll()
	if st := db.Stats(); st.LevelFiles[0] != 0 || st.LevelFiles[1] != 1 {
		t.Fatalf("set-up: level files %v, want one table in L1", st.LevelFiles)
	}
	if _, err := db.Get(hot); err != nil {
		t.Fatal(err)
	}
	warm := db.Stats()
	if warm.CacheBytes == 0 {
		t.Fatal("the read cached no block")
	}

	// Ten times the cache goes through flushes, merges and moves.
	for i := 0; i < 3000; i++ {
		if err := db.Put(stepKey(i), stepVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	db.CompactAll()
	st := db.Stats()
	if st.Compactions == st.Moves {
		t.Fatal("no merge ran")
	}
	if st.CacheMisses != warm.CacheMisses || st.CacheHits != warm.CacheHits {
		t.Fatalf("compaction counted as cache traffic: hits %d -> %d, misses %d -> %d",
			warm.CacheHits, st.CacheHits, warm.CacheMisses, st.CacheMisses)
	}
	if _, err := db.Get(hot); err != nil {
		t.Fatal(err)
	}
	if st = db.Stats(); st.CacheHits != warm.CacheHits+1 || st.CacheMisses != warm.CacheMisses {
		t.Fatalf("the hot block did not survive the compactions: hits %d -> %d, misses %d -> %d",
			warm.CacheHits, st.CacheHits, warm.CacheMisses, st.CacheMisses)
	}
}

// TestWriteAmplificationCounts pins the write side by count: a seeded load
// of 24 rounds, each 300 ops (10 % deletes) over 5000 keys and then a Flush
// and a CompactAll, must flush, merge, move and write exactly these tables.
// A change that moves one of these numbers changes what the LSM writes; it
// edits the pin in the same diff and says why.
func TestWriteAmplificationCounts(t *testing.T) {
	type counts struct {
		Flushes, Compactions, Moves, FlushBytes, CompactionBytes int64
		LevelFiles                                               []int
	}
	for _, tc := range []struct {
		name  string
		style CompactionStyle
		want  counts
	}{
		{"leveled", Leveled, counts{24, 34, 6, 588593, 1908238, []int{0, 5, 18, 0}}},
		{"size-tiered", SizeTiered, counts{24, 7, 0, 588593, 1481961, []int{3, 0, 0, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{
				Dir:             t.TempDir(),
				DisableWAL:      true,
				MemtableBytes:   1 << 20, // no rotation but Flush's
				TargetFileBytes: 16 << 10,
				BaseLevelBytes:  64 << 10,
				MaxLevels:       4,
				Compaction:      tc.style,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(47))
			for round := 0; round < 24; round++ {
				for op := 0; op < 300; op++ {
					key := []byte(fmt.Sprintf("wa%04d", rng.Intn(5000)))
					if rng.Intn(10) == 0 {
						err = db.Delete(key)
					} else {
						err = db.Put(key, bytes.Repeat([]byte{byte('a' + round)}, 40+rng.Intn(80)))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				db.CompactAll()
			}
			// Close first: the counters are final once the background
			// flusher and compactor have exited.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			st := db.Stats()
			got := counts{st.Flushes, st.Compactions, st.Moves, st.FlushBytes, st.CompactionBytes, st.LevelFiles}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("write side = %+v\nwant          %+v", got, tc.want)
			}
		})
	}
}

// TestSizeTieredMergeWritesOneRun: a size-tiered merge of four runs writes
// one run, whatever TargetFileBytes says. Cut at TargetFileBytes, a merge of
// four runs each larger than the target wrote four runs back, L0 never fell
// below the threshold and the compactor rewrote the same data forever.
func TestSizeTieredMergeWritesOneRun(t *testing.T) {
	db := testDB(t, Options{DisableWAL: true, Compaction: SizeTiered, TargetFileBytes: 4 << 10})
	for run := 0; run < 4; run++ {
		for i := 0; i < 200; i++ {
			if err := db.Put(stepKey(run*200+i), stepVal(i, run)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for rounds := 0; db.compactOnce(); rounds++ {
		if rounds == 10 {
			t.Fatalf("still merging after %d rounds: level files %v", rounds, db.Stats().LevelFiles)
		}
	}
	if st := db.Stats(); st.LevelFiles[0] != 1 {
		t.Fatalf("four runs merged into %d", st.LevelFiles[0])
	}
}
