package workload

import (
	"fmt"
	"math/rand"
)

// Stats summarizes an operation stream.
type Stats struct {
	Reads        int
	Writes       int
	DistinctKeys int
	// MeanAccessInterval is the mean number of ops between successive
	// accesses to the same key (§6.5.3's "average access interval for a
	// key", at one op a second).
	MeanAccessInterval float64
}

// Summarize computes stream statistics.
func Summarize(ops []Op) Stats {
	var st Stats
	last := make(map[string]int)
	var intervalSum float64
	var intervalN int64
	for i, op := range ops {
		if op.Kind == OpRead {
			st.Reads++
		} else {
			st.Writes++
		}
		if prev, ok := last[op.Key]; ok {
			intervalSum += float64(i - prev)
			intervalN++
		}
		last[op.Key] = i
	}
	st.DistinctKeys = len(last)
	if intervalN > 0 {
		st.MeanAccessInterval = intervalSum / float64(intervalN)
	}
	return st
}

// Preload is the snapshot a stream replays against: every key it touches,
// in order of first touch, with the stream's value or else a record of ds.
func Preload(ops []Op, ds Dataset) []Op {
	var preload []Op
	seen := map[string]bool{}
	for _, op := range ops {
		if seen[op.Key] {
			continue
		}
		seen[op.Key] = true
		v := op.Value
		if v == nil {
			v = ds.Record(int64(len(preload)))
		}
		preload = append(preload, Op{Kind: OpWrite, Key: op.Key, Value: v})
	}
	return preload
}

// UserInfoOptions shapes the Case 1 stream. Defaults reproduce the
// published statistics: reads:writes = 32:1 (16M reads vs 500k writes per
// second at peak), zipfian key popularity, KV1-shaped profile values, and
// a mean per-key access interval near 1000 ops.
type UserInfoOptions struct {
	Ops   int   // total operations (default 100k)
	Users int64 // user population (default Ops/10)
	Seed  int64
}

// UserInfo synthesizes the User Info Service stream.
func UserInfo(o UserInfoOptions) []Op {
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
	ds := NewKV1()
	chooser := NewScrambledZipfian(o.Users, 0.92)
	const readsPerWrite = 32
	ops := make([]Op, o.Ops)
	for i := range ops {
		uid := chooser.Next(rng)
		ops[i] = Op{Kind: OpRead, Key: fmt.Sprintf("user:%012d", uid)}
		if rng.Intn(readsPerWrite+1) == 0 {
			ops[i].Kind, ops[i].Value = OpWrite, ds.Record(uid)
		}
	}
	return ops
}

// ReconciliationOptions shapes the Case 2 stream: read:write close to 1:1,
// strong temporal skewness ("recent data is frequently accessed in the
// cache, while long-term data is occasionally retrieved"; write-through
// hit rate ~80% with ~1% of data hot).
type ReconciliationOptions struct {
	Ops  int // default 100k
	Seed int64
}

// Reconciliation synthesizes the Capital Reconciliation stream: channel
// writes append new transaction entries; the reconciliation system reads
// mostly recent entries back for verification.
func Reconciliation(o ReconciliationOptions) []Op {
	if o.Ops <= 0 {
		o.Ops = 100_000
	}
	if o.Seed == 0 {
		o.Seed = 2
	}
	rng := rand.New(rand.NewSource(o.Seed))
	ds := NewKV2()
	var written int64
	latest := NewZipfian(1, 0.99) // offset-from-newest chooser
	ops := make([]Op, o.Ops)
	for i := range ops {
		if written == 0 || rng.Intn(2) == 0 {
			// Channel write: a fresh transaction entry.
			ops[i] = Op{Kind: OpWrite, Key: fmt.Sprintf("txn:%015d", written), Value: ds.Record(written)}
			written++
			latest.SetItemCount(written)
		} else {
			// Reconciliation read: skewed toward the most recent entries.
			idx := max(written-1-latest.Next(rng), 0)
			ops[i] = Op{Kind: OpRead, Key: fmt.Sprintf("txn:%015d", idx)}
		}
	}
	return ops
}
