package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// crashCopy is what a crashed process leaves: the directory's files as the
// OS has them, copied without closing the log, so nothing still in the
// log's own buffer is in it.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		src, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		out.Close()
	}
	return dst
}

func replayStrings(t *testing.T, dir string) []string {
	t.Helper()
	var got []string
	if err := Replay(dir, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

func (l *Log) sealedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed)
}

// TestIntervalRotateLeavesFsyncToTicker: under SyncInterval a rotation
// writes the sealed segment out and returns; it does not fsync. The segment
// waits, open, for the ticker (here: an explicit Sync, the ticker being an
// hour away), and what it holds is already where a crash would leave it.
func TestIntervalRotateLeavesFsyncToTicker(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncInterval, SyncEvery: time.Hour})
	defer l.Close()
	l.Append([]byte("gen0-a"))
	l.Append([]byte("gen0-b"))
	before := l.Syncs()
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if l.Syncs() != before || l.sealedCount() != 1 {
		t.Fatalf("rotation made %d fsyncs and left %d segments sealed; want 0 and 1", l.Syncs()-before, l.sealedCount())
	}
	if got := replayStrings(t, crashCopy(t, dir)); fmt.Sprint(got) != "[gen0-a gen0-b]" {
		t.Fatalf("a crash right after the rotation keeps %v", got)
	}
	l.Append([]byte("gen1-a"))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Syncs() != before+2 || l.sealedCount() != 0 {
		t.Fatalf("Sync made %d fsyncs and left %d segments sealed; want 2 and 0", l.Syncs()-before, l.sealedCount())
	}
	if got := replayStrings(t, crashCopy(t, dir)); fmt.Sprint(got) != "[gen0-a gen0-b gen1-a]" {
		t.Fatalf("after Sync a crash keeps %v", got)
	}
}

// TestIntervalRecordSurvivesCrashAcrossRotation is SyncInterval's contract
// at a rotation boundary: a record acked more than SyncEvery ago is in a
// crashed process's files, whether its segment has since been sealed or is
// still the active one, and the sealed one has been fsynced and let go.
func TestIntervalRecordSurvivesCrashAcrossRotation(t *testing.T) {
	const every = 10 * time.Millisecond
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncInterval, SyncEvery: every})
	defer l.Close()
	var want []string
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 20; i++ {
			rec := fmt.Sprintf("gen%d-%02d", gen, i)
			if err := l.Append([]byte(rec)); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
		}
		if gen < 2 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	acked := l.Syncs()
	deadline := time.Now().Add(5 * time.Second)
	for l.Syncs() < acked+2 || l.sealedCount() > 0 { // two ticks: one may have been under way
		if time.Now().After(deadline) {
			t.Fatalf("the ticker left %d segments sealed", l.sealedCount())
		}
		time.Sleep(every)
	}
	if got := replayStrings(t, crashCopy(t, dir)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("crash copy replays %d records, want %d:\n%v", len(got), len(want), got)
	}
}

// TestRemoveBeforeTakesUnsyncedSealedSegment: a sealed segment whose records
// were checkpointed before the ticker reached it is closed and removed
// without an fsync, and Close has nothing left to do for it.
func TestRemoveBeforeTakesUnsyncedSealedSegment(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncInterval, SyncEvery: time.Hour})
	l.Append([]byte("gen0"))
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("gen1"))
	if err := l.RemoveBefore(seg); err != nil {
		t.Fatal(err)
	}
	if l.sealedCount() != 0 {
		t.Fatal("the removed segment is still waiting for its fsync")
	}
	if _, err := os.Stat(segName(dir, seg-1)); !os.IsNotExist(err) {
		t.Fatalf("sealed segment not removed: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayStrings(t, dir); fmt.Sprint(got) != "[gen1]" {
		t.Fatalf("replayed %v", got)
	}
}

// TestReplayTornSealedSegment: power loss can tear a segment that was
// sealed but not yet fsynced. Its torn tail ends that segment and replay
// goes on with the next; damage with intact records after it in the same
// sealed segment is still corruption.
func TestReplayTornSealedSegment(t *testing.T) {
	write := func(dir string, seg int, data []byte) {
		t.Helper()
		if err := os.WriteFile(segName(dir, seg), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := fuzzRecord([]byte("a")), fuzzRecord([]byte("bbbb")), fuzzRecord([]byte("c"))
	for name, tail := range map[string][]byte{
		"short header":   b[:5],
		"short payload":  b[:len(b)-2],
		"bad tail crc":   append(append([]byte(nil), b[:len(b)-1]...), 'x'),
		"nothing at all": nil,
	} {
		dir := t.TempDir()
		write(dir, 1, append(append([]byte(nil), a...), tail...))
		write(dir, 2, c)
		if got := replayStrings(t, dir); fmt.Sprint(got) != "[a c]" {
			t.Errorf("%s: replayed %v, want [a c]", name, got)
		}
	}

	dir := t.TempDir()
	flipped := append([]byte(nil), a...)
	flipped[recHeaderSize] ^= 1
	write(dir, 1, append(flipped, b...))
	write(dir, 2, c)
	err := Replay(dir, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt record mid-log") {
		t.Fatalf("a flipped byte before an intact record in a sealed segment: %v", err)
	}
}

// TestIntervalSyncRacesRotationAndReclaim runs what the LSM runs at once:
// appenders, a rotator that reclaims what it sealed two rotations ago, and
// a 1 ms ticker fsyncing outside the append lock. Under -race this is the
// check that no file is closed under an fsync. What is left replays whole.
func TestIntervalSyncRacesRotationAndReclaim(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, Policy: SyncInterval, SyncEvery: time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := l.Append([]byte(fmt.Sprintf("w%d-%06d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	var segs []int
	for i := 0; i < 200; i++ {
		seg, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
		if len(segs) > 2 {
			if err := l.RemoveBefore(segs[len(segs)-3]); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayStrings(t, dir); len(got) == 0 {
		t.Fatal("nothing left to replay")
	}
}
