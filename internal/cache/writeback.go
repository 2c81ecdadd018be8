package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/engine"
)

// Write-back implementation (paper §4.1.2).
//
// Updates ack from the cache tier immediately; dirty entries propagate to
// storage in batches. The paper's four mechanisms:
//
//   - Replication of cache: every committed mutation is reported to the
//     OpSink (commit in tiered.go), which the server streams to replicas;
//     with semi-sync acks the reply waits for them.
//   - Managing dirty data: dirty size is bounded (maxDirtyBatches) with
//     backpressure, and a maximum flush interval bounds staleness.
//   - Optimizing update: one BatchPut per flush round; multiple updates to
//     the same key naturally merge in the dirty map.
//   - Deferred cache-fetching: not done. Only Tiered.Update misses while
//     updating, and it holds its key's RMW stripe lock while it reads, so
//     gathering misses into a BatchGet would stall the stripe for the
//     gather window; an update miss reads storage like any other miss.
//
// One key or a batch, commit (tiered.go) admits a write with one
// dirtySet.mark, then applies it to the cache tier.

// dirtySet is a store's write-back backlog: the keys written to the cache
// tier and not yet to storage, under one lock and one budget ("a
// backpressure mechanism is activated when dirty data approaches a
// predefined threshold"). Nothing outside this file reads entries or takes
// mu. Lock order is engine stripe lock, then mu: an eviction asks holds
// under its stripe's lock, and no method here calls into the engine or
// storage.
type dirtySet struct {
	mu      sync.Mutex
	room    *sync.Cond // writers wait here while the set is at max
	entries map[string]*dirtyEntry
	tombs   int  // entries that are tombstones: dirty keys the cache does not hold
	max     int  // maxDirtyBatches flush batches
	closed  bool // close ran: nothing more is admitted

	// wake nudges the flusher; it holds one pending nudge, and one is enough.
	wake chan struct{}

	bytes atomic.Int64 // dirtyEntryBytes over entries, readable without mu
	waits atomic.Int64 // writers that found the set full
}

// dirtyEntry is one key's unflushed state. Entries are replaced whole, never
// changed in place: one may be read after mu is released, and the flusher
// tells "still what I wrote to storage" by the pointer.
type dirtyEntry struct {
	val []byte // nil = tombstone
	enc bool   // val is a typed collection blob, already storage-encoded
}

// tomb is 1 for a tombstone.
func (e *dirtyEntry) tomb() int {
	if e.val == nil {
		return 1
	}
	return 0
}

func newDirtySet(max int) *dirtySet {
	d := &dirtySet{entries: make(map[string]*dirtyEntry), max: max, wake: make(chan struct{}, 1)}
	d.room = sync.NewCond(&d.mu)
	return d
}

// nudge wakes the flusher without blocking.
func (d *dirtySet) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// admit takes mu and waits until the set has room or is closed; the caller
// puts what it has and unlocks. It waits once however many keys follow, so a
// batch lands whole and the set overshoots max by at most one batch. The
// error is ErrClosed, with nothing put.
func (d *dirtySet) admit() error {
	d.mu.Lock()
	if len(d.entries) >= d.max && !d.closed {
		d.waits.Add(1) // count blocked writers, not wakeups
		for len(d.entries) >= d.max && !d.closed {
			d.nudge()
			d.room.Wait()
		}
	}
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// put makes e key's dirty entry. Caller holds mu.
func (d *dirtySet) put(key string, e *dirtyEntry) {
	grown := dirtyEntryBytes(key, e.val)
	if old, ok := d.entries[key]; ok {
		grown -= dirtyEntryBytes(key, old.val)
		d.tombs -= old.tomb()
	}
	d.bytes.Add(grown)
	d.entries[key] = e
	d.tombs += e.tomb()
}

// mark admits the keys of ws together, each with a private copy of its
// value (nil = tombstone), and returns how many keys are now dirty. The
// caller holds the RMW locks of their stripes, and keeps them while the set
// is full: a backpressured writer stalls its stripes' writers, and the
// flusher, which takes no RMW lock, lets it in.
func (d *dirtySet) mark(ws []write) (int, error) {
	// Built before mu, which every writer of the store shares.
	es := make([]dirtyEntry, len(ws))
	for i, w := range ws {
		es[i] = dirtyEntry{val: copyBytes(w.val), enc: w.enc}
	}
	if err := d.admit(); err != nil {
		return 0, err
	}
	for i, w := range ws {
		d.put(w.key, &es[i])
	}
	n := len(d.entries)
	d.mu.Unlock()
	return n, nil
}

// lookup returns key's dirty entry, if it has one.
func (d *dirtySet) lookup(key string) (*dirtyEntry, bool) {
	d.mu.Lock()
	e, ok := d.entries[key]
	d.mu.Unlock()
	return e, ok
}

// holds reports whether key is dirty: what engine.Evict asks of every key it
// would remove.
func (d *dirtySet) holds(key []byte) bool {
	d.mu.Lock()
	_, ok := d.entries[string(key)]
	d.mu.Unlock()
	return ok
}

// len is the number of dirty keys.
func (d *dirtySet) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// live is the number of dirty keys that are not deletes: the ones the cache
// holds, pinned.
func (d *dirtySet) live() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries) - d.tombs
}

// flushedEntry is an entry as collect saw it.
type flushedEntry struct {
	key string
	e   *dirtyEntry
}

// collect returns up to max dirty entries (0 = all) for a flush round, which
// hands them back to settle. Which ones is the map's order, which differs
// from call to call, so no key waits on a fixed order.
func (d *dirtySet) collect(max int) []flushedEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.entries)
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	taken := make([]flushedEntry, 0, n)
	for k, e := range d.entries {
		if len(taken) == n {
			break
		}
		taken = append(taken, flushedEntry{k, e})
	}
	return taken
}

// settle drops the entries of taken that storage now holds, which are those
// not overwritten since collect, and lets waiting writers in.
func (d *dirtySet) settle(taken []flushedEntry) {
	var freed int64
	d.mu.Lock()
	for _, f := range taken {
		if d.entries[f.key] == f.e {
			freed += dirtyEntryBytes(f.key, f.e.val)
			delete(d.entries, f.key)
			d.tombs -= f.e.tomb()
		}
	}
	d.bytes.Add(-freed)
	d.room.Broadcast()
	d.mu.Unlock()
}

// reset forgets every entry (FLUSHALL: the keyspace they belong to is gone).
func (d *dirtySet) reset() {
	d.mu.Lock()
	d.entries = make(map[string]*dirtyEntry)
	d.tombs = 0
	d.bytes.Store(0)
	d.room.Broadcast()
	d.mu.Unlock()
}

// close refuses further admissions and releases the writers waiting for room.
// What the set holds stays for the final flush.
func (d *dirtySet) close() {
	d.mu.Lock()
	d.closed = true
	d.room.Broadcast()
	d.mu.Unlock()
}

// dirtyEntryBytes approximates one dirty entry's heap footprint: the
// copied value buffer, the key, and the entry struct/map overhead.
// TestDirtyBytesTracksHeap holds the sum to the heap.
func dirtyEntryBytes(key string, val []byte) int64 {
	// The dirtyEntry (32 B), its map slot (25 B at 7/8 load, 50 B after the
	// map doubles) and the rounding of key and value. Measured 69-89 B
	// between 10k and 100k entries.
	const entryOverhead = 80
	return int64(len(key) + len(val) + entryOverhead)
}

// flushLoop is the background dirty-data propagator. Writers nudge it when
// a full batch accumulates (an earlier design bridged the dirty cond into a
// channel with a helper goroutine, but that bridge spins at 100% CPU
// whenever the dirty set stays above FlushBatch); the ticker bounds
// staleness when traffic trickles in below batch size.
func (t *Tiered) flushLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-ticker.C:
		case <-t.dirty.wake:
		}
		// Keep draining while a full batch remains so a burst doesn't
		// wait out the ticker FlushBatch keys at a time. A storage error
		// goes back to the select: the ticker provides the backoff.
		for t.flushDirty(t.opts.FlushBatch) == nil && t.dirty.len() >= t.opts.FlushBatch {
			select {
			case <-t.stopCh:
				return
			default:
			}
		}
	}
}

// flushDirty writes up to max dirty entries (0 = all) to storage in one
// grouped round trip. Entries overwritten during the round trip stay dirty.
func (t *Tiered) flushDirty(max int) error {
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	taken := t.dirty.collect(max)
	if len(taken) == 0 {
		return nil
	}
	batch := make(map[string][]byte, len(taken))
	for _, f := range taken {
		v := f.e.val
		if !f.e.enc {
			// Raw strings escape on the way to storage so they never
			// collide with typed collection blobs.
			v = engine.EscapeStringValue(v)
		}
		batch[f.key] = v
	}
	if err := t.store(false, func(s Storage) error { return s.BatchPut(batch) }); err != nil {
		return err
	}
	t.dirty.settle(taken)
	t.flushed.Add(int64(len(batch)))
	t.batches.Add(1)
	return nil
}

// FlushDirty forces all dirty entries to storage (checkpoint / tests).
func (t *Tiered) FlushDirty() error {
	for t.dirty.len() > 0 {
		if err := t.flushDirty(0); err != nil {
			return err
		}
	}
	return nil
}
