package lsm

import (
	"container/list"
	"sync"
)

// blockCache is a sharded-free LRU cache of decoded data blocks keyed by
// (table file number, block offset). It bounds memory by total cached bytes.
type blockCache struct {
	mu    sync.Mutex
	max   int64
	cur   int64
	ll    *list.List
	items map[blockKey]*list.Element

	hits   int64
	misses int64
}

type blockKey struct {
	file uint64
	off  uint64
}

type blockVal struct {
	key  blockKey
	data []byte
}

func newBlockCache(maxBytes int64) *blockCache {
	if maxBytes <= 0 {
		return nil
	}
	return &blockCache{
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[blockKey]*list.Element),
	}
}

// get returns the cached block. A foreground lookup counts as a hit or a
// miss and makes the block the most recently used; a compaction's only
// borrows what is there.
func (c *blockCache) get(file, off uint64, foreground bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[blockKey{file, off}]
	if foreground {
		if ok {
			c.ll.MoveToFront(el)
			c.hits++
		} else {
			c.misses++
		}
	}
	if !ok {
		return nil, false
	}
	return el.Value.(*blockVal).data, true
}

func (c *blockCache) put(file, off uint64, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := blockKey{file, off}
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		old := el.Value.(*blockVal)
		c.cur += int64(len(data) - len(old.data))
		old.data = data
	} else {
		el := c.ll.PushFront(&blockVal{key: k, data: data})
		c.items[k] = el
		c.cur += int64(len(data))
	}
	for c.cur > c.max && c.ll.Len() > 0 {
		back := c.ll.Back()
		bv := back.Value.(*blockVal)
		c.ll.Remove(back)
		delete(c.items, bv.key)
		c.cur -= int64(len(bv.data))
	}
}

// dropFile evicts all blocks of a deleted table.
func (c *blockCache) dropFile(file uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		bv := el.Value.(*blockVal)
		if bv.key.file == file {
			c.ll.Remove(el)
			delete(c.items, bv.key)
			c.cur -= int64(len(bv.data))
		}
		el = next
	}
}

// stats returns (hits, misses, bytes).
func (c *blockCache) stats() (int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.cur
}
