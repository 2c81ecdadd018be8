package lsm

import (
	"sync"
	"testing"

	"tierbase/internal/wal"
)

// Probe: Scan over the active memtable while the same key is overwritten
// in place (no rotation: huge MemtableBytes).
func TestRaceProbeScanVsInPlaceOverwrite(t *testing.T) {
	db := testDB(t, Options{WALSyncPolicy: wal.SyncNever, MemtableBytes: 64 << 20})
	db.Put([]byte("k"), []byte("v0"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Put([]byte("k"), []byte("vvvvvvvvvv"))
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := db.Scan(nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
