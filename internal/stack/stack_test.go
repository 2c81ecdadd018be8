package stack

import (
	"bytes"
	"fmt"
	"testing"

	"tierbase/internal/cache"
	"tierbase/internal/lsm"
	"tierbase/internal/workload"
)

var policies = []cache.Policy{cache.CacheOnly, cache.WriteThrough, cache.WriteBack}

// TestEveryPolicyAndPlacement: each policy over raw, PBC-compressed and
// PMem-offloaded values opens, round-trips a value and closes, and the
// value lands where the configuration says.
func TestEveryPolicyAndPlacement(t *testing.T) {
	ds := workload.NewKV1()
	placements := map[string]Config{
		"raw":  {},
		"pbc":  {Compression: "pbc", TrainingSamples: workload.Sample(ds, 200)},
		"pmem": {PMemBytes: 1 << 20},
	}
	for _, p := range policies {
		for name, c := range placements {
			t.Run(p.String()+"/"+name, func(t *testing.T) {
				c.Policy = p
				c.Dir = t.TempDir()
				st, err := Open(c)
				if err != nil {
					t.Fatal(err)
				}
				if (st.DB != nil) != (p != cache.CacheOnly) {
					t.Fatalf("storage tier %v under %s", st.DB != nil, p)
				}
				val := ds.Record(7)
				if err := st.Set("k", val); err != nil {
					t.Fatal(err)
				}
				if got, err := st.Get("k"); err != nil || !bytes.Equal(got, val) {
					t.Fatalf("round trip: %q %v", got, err)
				}
				es := st.Engine().Stats()
				switch name {
				case "raw":
					if es.PMemUsed != 0 || es.PayloadBytes < int64(len(val)) {
						t.Fatalf("raw value not stored as itself: %+v", es)
					}
				case "pbc":
					if es.PayloadBytes >= int64(len(val)) {
						t.Fatalf("pbc stored %d payload bytes for a %d-byte value", es.PayloadBytes, len(val))
					}
				case "pmem":
					if es.PMemUsed == 0 {
						t.Fatal("value not offloaded to PMem")
					}
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWriteBackCloseFlushesBeforeTheLSMCloses: Close hands the dirty set
// to the LSM and only then closes it, so every acked key is on disk.
func TestWriteBackCloseFlushesBeforeTheLSMCloses(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Policy: cache.WriteBack, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := st.Set(fmt.Sprintf("wb%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 200; i++ {
		if v, err := db.Get([]byte(fmt.Sprintf("wb%03d", i))); err != nil || string(v) != "v" {
			t.Fatalf("wb%03d in the LSM after Close: %q %v", i, v, err)
		}
	}
}

// TestReopenKeepsKeys: a tiered stack reopened on its directory serves
// what the last one stored, from the storage tier.
func TestReopenKeepsKeys(t *testing.T) {
	for _, p := range policies[1:] {
		t.Run(p.String(), func(t *testing.T) {
			c := Config{Policy: p, Dir: t.TempDir()}
			st, err := Open(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				st.Set(fmt.Sprintf("k%02d", i), []byte(fmt.Sprint(i)))
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err = Open(c)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := 0; i < 50; i++ {
				if v, err := st.Get(fmt.Sprintf("k%02d", i)); err != nil || string(v) != fmt.Sprint(i) {
					t.Fatalf("k%02d after reopen: %q %v", i, v, err)
				}
			}
			if st.Stats().Misses == 0 {
				t.Fatal("reopened reads should be misses served by storage")
			}
		})
	}
}

// TestFlushAllEmptiesTheStorageTier: FLUSHALL on a tiered node, and every
// full sync to a tiered replica, empties the LSM through
// cache.LSMStorage.FlushAll, which deletes a page of keys at a time. No
// key of more than two pages may come back from a reopened stack.
func TestFlushAllEmptiesTheStorageTier(t *testing.T) {
	const n = 1300
	for _, p := range policies[1:] {
		t.Run(p.String(), func(t *testing.T) {
			c := Config{Policy: p, Dir: t.TempDir()}
			st, err := Open(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := st.Set(fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.FlushDirty(); err != nil {
				t.Fatal(err)
			}
			if err := st.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = Open(c); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := 0; i < n; i++ {
				if v, err := st.Get(fmt.Sprintf("k%04d", i)); err != cache.ErrNotFound {
					t.Fatalf("k%04d after FlushAll and reopen: %q %v", i, v, err)
				}
			}
			if kvs, err := st.DB.Scan(nil, nil, 0); err != nil || len(kvs) != 0 {
				t.Fatalf("LSM scan after FlushAll and reopen: %d live keys, %v", len(kvs), err)
			}
		})
	}
}

func TestRefusesWhatItCannotBuild(t *testing.T) {
	for name, c := range map[string]Config{
		"tiered without a dir": {Policy: cache.WriteThrough},
		"unknown policy":       {Policy: cache.Policy(99), Dir: t.TempDir()},
		"unknown compressor":   {Compression: "nope"},
	} {
		if st, err := Open(c); err == nil {
			st.Close()
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBatchPutAllocs pins what one 256-pair write-through BatchPut of kv1
// records allocates, raw and PBC-compressed, so a change to the batch write
// path (engine, compressor, cache commit, LSM apply, WAL append) that adds
// allocations fails here. Every batch writes fresh keys, and the 41 batches
// (one warm-up) stay inside one memtable, so no flush runs in the window.
// Write-back is left out: its flusher allocates on its own schedule. The
// bounds are the counts Go 1.24 reads, with and without -race.
func TestBatchPutAllocs(t *testing.T) {
	ds := workload.NewKV1()
	for _, tc := range []struct {
		name      string
		cfg       Config
		maxAllocs float64
	}{
		{"raw", Config{}, 282},
		{"pbc", Config{Compression: "pbc", TrainingSamples: workload.Sample(ds, 500)}, 535},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Policy = cache.WriteThrough
			tc.cfg.Dir = t.TempDir()
			st, err := Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			const runs, pairs = 40, 256
			batches := make([]map[string][]byte, runs+1)
			for b := range batches {
				batches[b] = make(map[string][]byte, pairs)
				for i := 0; i < pairs; i++ {
					id := int64(b*pairs + i)
					batches[b][fmt.Sprintf("user%012d", id)] = ds.Record(id)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if err := st.BatchPut(batches[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			t.Logf("%s: %.0f allocs per %d-pair BatchPut", tc.name, allocs, pairs)
			if allocs > tc.maxAllocs {
				t.Errorf("%s: %.0f allocs per BatchPut, want at most %.0f", tc.name, allocs, tc.maxAllocs)
			}
			if flushes := st.DB.Stats().Flushes; flushes != 0 {
				t.Fatalf("%d memtable flushes inside the window", flushes)
			}
		})
	}
}

// TestGetMissAllocs pins what a write-through read of keys the cache tier
// does not hold allocates: a one-key Get and a 16-key BatchGet, each of keys
// only the LSM has (written, then the node reopened), so every key takes the
// miss leg: its stripe's RMW lock, one storage round trip and the fill. The
// bounds are the counts Go 1.24 reads, with and without -race.
func TestGetMissAllocs(t *testing.T) {
	const runs, batch = 40, 16
	dir := t.TempDir()
	st, err := Open(Config{Policy: cache.WriteThrough, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gets, mgets := make([]string, runs+1), make([]string, (runs+1)*batch)
	entries := make(map[string][]byte)
	for i := range mgets {
		mgets[i] = fmt.Sprintf("mget%06d", i)
		entries[mgets[i]] = []byte("v")
	}
	for i := range gets {
		gets[i] = fmt.Sprintf("get%06d", i)
		entries[gets[i]] = []byte("v")
	}
	if err := st.BatchPut(entries); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = Open(Config{Policy: cache.WriteThrough, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	next := 0
	get := testing.AllocsPerRun(runs, func() {
		if v, err := st.Get(gets[next]); err != nil || string(v) != "v" {
			t.Fatalf("Get: %q, %v", v, err)
		}
		next++
	})
	next = 0
	mget := testing.AllocsPerRun(runs, func() {
		keys := mgets[next*batch : (next+1)*batch]
		vals, err := st.BatchGet(keys)
		if err != nil || len(vals) != batch || string(vals[keys[0]]) != "v" {
			t.Fatalf("BatchGet: %d values, %v", len(vals), err)
		}
		next++
	})
	if st.Stats().Hits != 0 {
		t.Fatalf("%d reads hit the cache tier; every one must miss", st.Stats().Hits)
	}
	t.Logf("allocs: Get miss %.0f, %d-key BatchGet of misses %.0f", get, batch, mget)
	for _, c := range []struct {
		name     string
		got, max float64
	}{{"Get miss", get, 5}, {"BatchGet of misses", mget, 67}} {
		if c.got > c.max {
			t.Errorf("%s: %.0f allocs, want at most %.0f", c.name, c.got, c.max)
		}
	}
}
