package lsm

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
)

// entryKind distinguishes sets from deletions (tombstones).
type entryKind uint8

const (
	kindSet entryKind = iota
	kindDelete
)

// memEntry is the value stored per key in the memtable.
type memEntry struct {
	seq   uint64
	kind  entryKind
	value []byte
}

const maxHeight = 12

// skiplist is the memtable: sorted by user key, one entry per key (the
// latest write wins in place; the sequence number is retained so flushed
// SSTables merge correctly with older runs). Reads may proceed concurrently
// with each other; writes are serialized by the caller (the DB write lock),
// which matches the single-writer design of the engine's event loop.
type skiplist struct {
	head   *slNode
	height int
	rng    *rand.Rand
	size   atomic.Int64 // approximate bytes
	count  int
	mu     sync.RWMutex
}

type slNode struct {
	key   []byte
	entry memEntry
	next  []*slNode // the tower: one link per level the node is in
}

// newNode allocates a node of height h with its tower in the same object.
// Three tower sizes stand for the twelve heights: three nodes in four have
// height 1, and one in 256 is taller than 4.
func newNode(key []byte, e memEntry, h int) *slNode {
	switch {
	case h == 1:
		n := &struct {
			slNode
			tower [1]*slNode
		}{}
		n.slNode = slNode{key: key, entry: e, next: n.tower[:]}
		return &n.slNode
	case h <= 4:
		n := &struct {
			slNode
			tower [4]*slNode
		}{}
		n.slNode = slNode{key: key, entry: e, next: n.tower[:h]}
		return &n.slNode
	default:
		n := &struct {
			slNode
			tower [maxHeight]*slNode
		}{}
		n.slNode = slNode{key: key, entry: e, next: n.tower[:h]}
		return &n.slNode
	}
}

func newSkiplist() *skiplist {
	return &skiplist{
		head:   newNode(nil, memEntry{}, maxHeight),
		height: 1,
		rng:    rand.New(rand.NewSource(0x7e57)),
	}
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGE returns the first node with key >= target, and the previous node
// at every level (for insertion).
func (s *skiplist) findGE(key []byte, prev *[maxHeight]*slNode) *slNode {
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for {
			next := x.next[level]
			if next != nil && bytes.Compare(next.key, key) < 0 {
				x = next
				continue
			}
			break
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// put inserts or overwrites key.
func (s *skiplist) put(key []byte, e memEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var prev [maxHeight]*slNode
	for i := s.height; i < maxHeight; i++ {
		prev[i] = s.head
	}
	node := s.findGE(key, &prev)
	if node != nil && bytes.Equal(node.key, key) {
		// In-place overwrite: adjust size accounting.
		s.size.Add(int64(len(e.value) - len(node.entry.value)))
		node.entry = e
		return
	}
	h := s.randomHeight()
	if h > s.height {
		s.height = h
	}
	n := newNode(key, e, h)
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	s.count++
	s.size.Add(int64(len(key) + len(e.value) + 48))
}

// get returns the entry for key.
func (s *skiplist) get(key []byte) (memEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	node := s.findGE(key, nil)
	if node != nil && bytes.Equal(node.key, key) {
		return node.entry, true
	}
	return memEntry{}, false
}

// approximateSize returns approximate memory use in bytes.
func (s *skiplist) approximateSize() int64 { return s.size.Load() }

// entries returns the number of distinct keys.
func (s *skiplist) entries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// iterator walks the skiplist in key order.
type slIterator struct {
	s    *skiplist
	node *slNode
}

// iter returns an iterator positioned before the first entry.
func (s *skiplist) iter() *slIterator { return &slIterator{s: s, node: s.head} }

// next advances; returns false when exhausted.
func (it *slIterator) next() bool {
	it.s.mu.RLock()
	it.node = it.node.next[0]
	it.s.mu.RUnlock()
	return it.node != nil
}

// seekGE positions at the first entry >= key; returns false if none.
func (it *slIterator) seekGE(key []byte) bool {
	it.s.mu.RLock()
	it.node = it.s.findGE(key, nil)
	it.s.mu.RUnlock()
	return it.node != nil
}

func (it *slIterator) key() []byte { return it.node.key }

// err is always nil: a memtable read cannot fail.
func (it *slIterator) err() error { return nil }

// entry takes the lock: put overwrites a live node's entry in place.
func (it *slIterator) entry() memEntry {
	it.s.mu.RLock()
	e := it.node.entry
	it.s.mu.RUnlock()
	return e
}
