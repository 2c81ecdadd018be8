package cache

import "tierbase/internal/replication"

// OpSink receives every logical mutation the tiered store commits — the
// replication seam. The server installs one sink on its node's tiered
// store and feeds its op log from it (see internal/replication).
//
// Each mutation arrives as the op that carries it (Seq 0: the log assigns
// it), one per key of a batch.
//
// Contract:
//   - Every call happens under the mutated key's RMW stripe lock (a
//     batch holds the locks of all its stripes across its storage write
//     and its sink calls; FlushAll holds them all), so per-key (and
//     per-stripe) sink order matches engine apply order and storage
//     order — the property semi-sync replication needs.
//   - Values may alias buffers the caller reuses (RESP parse arenas):
//     implementations must copy anything they retain.
//   - Implementations must not call back into the Tiered store and
//     should return quickly (they run inside the write path's critical
//     sections).
//
// Cache fills (miss population) and capacity evictions are
// NOT reported: they don't change the logical key space, and replicas
// manage their own residency.
type OpSink interface {
	Replicate(op replication.Op)
}

// SetSink installs the replication sink. It must be called before the
// store serves traffic (the field is read without synchronization on
// the write path).
func (t *Tiered) SetSink(s OpSink) { t.sink = s }
