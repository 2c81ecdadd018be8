// Package trace implements the sample-based evaluation method of the cost
// optimization framework (paper §5.3): replay a representative period of
// key-value operations against candidate configurations, measuring maximum
// performance and space. Traces live in memory only; there is no file
// format. The two production case-study traces (§6.5) are synthesized from
// their published statistics by GenUserInfo and GenReconciliation.
package trace

import (
	"fmt"
	"math/rand"

	"tierbase/internal/workload"
)

// OpKind enumerates trace operations.
type OpKind byte

// Trace operation kinds.
const (
	OpRead   OpKind = 'R'
	OpWrite  OpKind = 'W'
	OpDelete OpKind = 'D'
)

// Entry is one trace record. Tick is a logical timestamp (request index
// in the recorded period); the replayer uses it only for access-interval
// statistics, not for pacing.
type Entry struct {
	Tick int64
	Op   OpKind
	Key  string
	Val  []byte // nil for reads/deletes
}

// Trace is an in-memory operation trace.
type Trace struct {
	Name    string
	Entries []Entry
	// TickHz converts ticks to seconds for interval statistics (how many
	// ticks elapse per second of recorded wall time).
	TickHz float64
}

// --- statistics ---

// Stats summarizes a trace.
type Stats struct {
	Ops          int
	Reads        int
	Writes       int
	Deletes      int
	DistinctKeys int
	ValueBytes   int64
	// MeanAccessIntervalS is the mean time between successive accesses to
	// the same key (§6.5.3's "average access interval for a key").
	MeanAccessIntervalS float64
}

// Summarize computes trace statistics.
func (t *Trace) Summarize() Stats {
	st := Stats{Ops: len(t.Entries)}
	last := make(map[string]int64)
	var intervalSum float64
	var intervalN int64
	for _, e := range t.Entries {
		switch e.Op {
		case OpRead:
			st.Reads++
		case OpWrite:
			st.Writes++
		case OpDelete:
			st.Deletes++
		}
		st.ValueBytes += int64(len(e.Val))
		if prev, ok := last[e.Key]; ok && t.TickHz > 0 {
			intervalSum += float64(e.Tick-prev) / t.TickHz
			intervalN++
		}
		last[e.Key] = e.Tick
	}
	st.DistinctKeys = len(last)
	if intervalN > 0 {
		st.MeanAccessIntervalS = intervalSum / float64(intervalN)
	}
	return st
}

// Keys returns the trace's key stream (for MRC construction).
func (t *Trace) Keys() []string {
	out := make([]string, len(t.Entries))
	for i, e := range t.Entries {
		out[i] = e.Key
	}
	return out
}

// --- case-study trace generators (§6.5) ---

// UserInfoOptions shapes the Case 1 synthetic trace. Defaults reproduce
// the published statistics: reads:writes = 32:1 (16M reads vs 500k writes
// per second at peak), zipfian key popularity, KV1-shaped profile values,
// and a mean per-key access interval above ~1000 ticks-seconds.
type UserInfoOptions struct {
	Ops   int   // total operations (default 100k)
	Users int64 // user population (default Ops/10)
	Seed  int64
}

// GenUserInfo synthesizes the User Info Service trace.
func GenUserInfo(o UserInfoOptions) *Trace {
	if o.Ops <= 0 {
		o.Ops = 100_000
	}
	if o.Users <= 0 {
		o.Users = int64(o.Ops / 10)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	rng := rand.New(rand.NewSource(o.Seed))
	ds := workload.NewKV1()
	chooser := workload.NewScrambledZipfian(o.Users, 0.92)
	t := &Trace{Name: "userinfo", TickHz: 1}
	const readsPerWrite = 32
	for i := 0; i < o.Ops; i++ {
		uid := chooser.Next(rng)
		key := fmt.Sprintf("user:%012d", uid)
		if rng.Intn(readsPerWrite+1) == 0 {
			t.Entries = append(t.Entries, Entry{
				Tick: int64(i), Op: OpWrite, Key: key, Val: ds.Record(uid),
			})
		} else {
			t.Entries = append(t.Entries, Entry{Tick: int64(i), Op: OpRead, Key: key})
		}
	}
	return t
}

// ReconciliationOptions shapes the Case 2 synthetic trace: read:write
// close to 1:1, strong temporal skewness ("recent data is frequently
// accessed in the cache, while long-term data is occasionally retrieved";
// write-through hit rate ~80% with ~1% of data hot).
type ReconciliationOptions struct {
	Ops  int // default 100k
	Seed int64
}

// GenReconciliation synthesizes the Capital Reconciliation trace:
// channel writes append new transaction entries; the reconciliation
// system reads mostly recent entries back for verification.
func GenReconciliation(o ReconciliationOptions) *Trace {
	if o.Ops <= 0 {
		o.Ops = 100_000
	}
	if o.Seed == 0 {
		o.Seed = 2
	}
	rng := rand.New(rand.NewSource(o.Seed))
	ds := workload.NewKV2()
	t := &Trace{Name: "reconciliation", TickHz: 1}
	var written int64
	latest := workload.NewZipfian(1, 0.99) // offset-from-newest chooser
	for i := 0; i < o.Ops; i++ {
		if written == 0 || rng.Intn(2) == 0 {
			// Channel write: a fresh transaction entry.
			key := fmt.Sprintf("txn:%015d", written)
			t.Entries = append(t.Entries, Entry{
				Tick: int64(i), Op: OpWrite, Key: key, Val: ds.Record(written),
			})
			written++
			latest.SetItemCount(written)
		} else {
			// Reconciliation read: skewed toward the most recent entries.
			off := latest.Next(rng)
			idx := written - 1 - off
			if idx < 0 {
				idx = 0
			}
			t.Entries = append(t.Entries, Entry{
				Tick: int64(i), Op: OpRead, Key: fmt.Sprintf("txn:%015d", idx),
			})
		}
	}
	return t
}
