package trace

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	tr := &Trace{TickHz: 1}
	tr.Entries = []Entry{
		{Tick: 0, Op: OpWrite, Key: "k", Val: []byte("1234")},
		{Tick: 10, Op: OpRead, Key: "k"},
		{Tick: 30, Op: OpRead, Key: "k"},
		{Tick: 30, Op: OpDelete, Key: "other"},
	}
	st := tr.Summarize()
	if st.Ops != 4 || st.Reads != 2 || st.Writes != 1 || st.Deletes != 1 {
		t.Fatalf("counts: %+v", st)
	}
	if st.DistinctKeys != 2 {
		t.Fatalf("distinct %d", st.DistinctKeys)
	}
	if st.ValueBytes != 4 {
		t.Fatalf("bytes %d", st.ValueBytes)
	}
	// Intervals: k at 0,10,30 -> intervals 10 and 20 -> mean 15.
	if math.Abs(st.MeanAccessIntervalS-15) > 1e-9 {
		t.Fatalf("interval %f", st.MeanAccessIntervalS)
	}
}

func TestValidate(t *testing.T) {
	good := &Trace{Entries: []Entry{
		{Tick: 0, Op: OpWrite, Key: "k", Val: []byte("v")},
		{Tick: 1, Op: OpRead, Key: "k"},
	}}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad1 := &Trace{Entries: []Entry{{Tick: 5, Op: OpRead, Key: "k"}, {Tick: 1, Op: OpRead, Key: "k"}}}
	if err := bad1.validate(); err == nil {
		t.Fatal("tick regression not caught")
	}
	bad2 := &Trace{Entries: []Entry{{Tick: 0, Op: 'X', Key: "k"}}}
	if err := bad2.validate(); err == nil {
		t.Fatal("bad op not caught")
	}
	bad3 := &Trace{Entries: []Entry{{Tick: 0, Op: OpWrite, Key: "k"}}}
	if err := bad3.validate(); err == nil {
		t.Fatal("write without value not caught")
	}
}

func TestGenUserInfoShape(t *testing.T) {
	tr := GenUserInfo(UserInfoOptions{Ops: 30000})
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.Summarize()
	if st.Ops != 30000 {
		t.Fatalf("ops %d", st.Ops)
	}
	// Published shape: read-heavy around 32:1.
	ratio := float64(st.Reads) / float64(st.Writes)
	if ratio < 20 || ratio > 50 {
		t.Fatalf("read:write ratio %.1f, want ~32", ratio)
	}
	// Skewness: distinct keys well below ops (hot keys re-accessed).
	if st.DistinctKeys >= st.Ops/2 {
		t.Fatalf("no skew: %d distinct of %d", st.DistinctKeys, st.Ops)
	}
	// Determinism.
	tr2 := GenUserInfo(UserInfoOptions{Ops: 30000})
	if tr2.Entries[100].Key != tr.Entries[100].Key {
		t.Fatal("generator not deterministic")
	}
}

func TestGenReconciliationShape(t *testing.T) {
	tr := GenReconciliation(ReconciliationOptions{Ops: 30000})
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.Summarize()
	// Published shape: ~1:1 read:write.
	ratio := float64(st.Reads) / float64(st.Writes)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("read:write ratio %.2f, want ~1", ratio)
	}
	// Temporal locality: reads should target recent writes — the mean
	// access interval stays small relative to the trace span.
	if st.MeanAccessIntervalS > float64(st.Ops)/4 {
		t.Fatalf("poor temporal locality: %f", st.MeanAccessIntervalS)
	}
}

func TestKeys(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		{Tick: 1, Op: OpRead, Key: "b"},
		{Tick: 2, Op: OpWrite, Key: "a", Val: []byte("v")},
	}}
	keys := tr.Keys()
	if len(keys) != 2 || keys[0] != "b" || keys[1] != "a" {
		t.Fatalf("keys %v", keys)
	}
}

// validate checks structural invariants (monotone ticks, ops populated).
func (t *Trace) validate() error {
	var prev int64 = -1
	for i, e := range t.Entries {
		if e.Tick < prev {
			return fmt.Errorf("trace: tick regression at %d", i)
		}
		prev = e.Tick
		if e.Op != OpRead && e.Op != OpWrite && e.Op != OpDelete {
			return fmt.Errorf("trace: bad op %q at %d", e.Op, i)
		}
		if e.Op == OpWrite && e.Val == nil {
			return errors.New("trace: write without value")
		}
	}
	return nil
}
