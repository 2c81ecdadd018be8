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
