package lsm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// manifest is the persistent record of the LSM version: which tables exist
// at which levels, the next file number and the last used sequence number.
// Edits are applied by atomically rewriting the file (write temp + rename),
// so a crash leaves either the old or the new version, never a torn one.
type manifest struct {
	NextFile uint64        `json:"next_file"`
	LastSeq  uint64        `json:"last_seq"`
	Levels   [][]tableMeta `json:"levels"`
}

const manifestName = "MANIFEST.json"

func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// loadManifest reads the manifest, returning an empty one if absent.
func loadManifest(dir string, maxLevels int) (*manifest, error) {
	m := &manifest{NextFile: 1, Levels: make([][]tableMeta, maxLevels)}
	data, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("lsm: parse manifest: %w", err)
	}
	for len(m.Levels) < maxLevels {
		m.Levels = append(m.Levels, nil)
	}
	return m, nil
}

// save atomically persists the manifest.
func (m *manifest) save(dir string) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("lsm: marshal manifest: %w", err)
	}
	tmp := manifestPath(dir) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, manifestPath(dir))
}

// clone deep-copies the manifest for copy-on-write version edits.
func (m *manifest) clone() *manifest {
	cp := &manifest{NextFile: m.NextFile, LastSeq: m.LastSeq, Levels: make([][]tableMeta, len(m.Levels))}
	for i, lvl := range m.Levels {
		cp.Levels[i] = append([]tableMeta(nil), lvl...)
	}
	return cp
}

// replace is a compaction's edit: the tables numbered in remove leave
// whichever level holds them and add joins level. Levels >= 1 stay sorted by
// smallest key.
func (m *manifest) replace(remove map[uint64]bool, add []tableMeta, level int) {
	for l, lvl := range m.Levels {
		kept := lvl[:0]
		for _, t := range lvl {
			if !remove[t.Num] {
				kept = append(kept, t)
			}
		}
		m.Levels[l] = kept
	}
	m.Levels[level] = append(m.Levels[level], add...)
	if level > 0 {
		lvl := m.Levels[level]
		sort.Slice(lvl, func(i, j int) bool { return bytes.Compare(lvl[i].Smallest, lvl[j].Smallest) < 0 })
	}
}

// totalBytes returns on-disk bytes at level l.
func (m *manifest) totalBytes(l int) int64 {
	var n int64
	for _, t := range m.Levels[l] {
		n += t.Size
	}
	return n
}
