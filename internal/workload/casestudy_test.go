package workload

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// summarizeOps is a stream with k at 0, 2, 5 and other at 1, 3, 4.
var summarizeOps = []Op{
	{Kind: OpWrite, Key: "k", Value: []byte("1234")},
	{Kind: OpRead, Key: "other"},
	{Kind: OpRead, Key: "k"},
	{Kind: OpRead, Key: "other"},
	{Kind: OpRead, Key: "other"},
	{Kind: OpRead, Key: "k"},
}

func TestSummarize(t *testing.T) {
	st := Summarize(summarizeOps)
	if st.Reads != 5 || st.Writes != 1 || st.DistinctKeys != 2 {
		t.Fatalf("counts: %+v", st)
	}
}

func TestSummarizeMeanAccessInterval(t *testing.T) {
	// Intervals 2, 3 for k and 2, 1 for other.
	if st := Summarize(summarizeOps); st.MeanAccessInterval != 2 {
		t.Fatalf("interval %f, want 2", st.MeanAccessInterval)
	}
}

// checkValues fails unless every write carries a value and no read does.
func checkValues(t *testing.T, ops []Op) {
	t.Helper()
	for i, op := range ops {
		if (op.Kind == OpWrite) != (op.Value != nil) {
			t.Fatalf("op %d: kind %d with %d-byte value", i, op.Kind, len(op.Value))
		}
	}
}

func TestUserInfoShape(t *testing.T) {
	ops := UserInfo(UserInfoOptions{Ops: 30000})
	if len(ops) != 30000 {
		t.Fatalf("ops %d", len(ops))
	}
	checkValues(t, ops)
	st := Summarize(ops)
	// Published shape: read-heavy around 32:1.
	ratio := float64(st.Reads) / float64(st.Writes)
	if ratio < 20 || ratio > 50 {
		t.Fatalf("read:write ratio %.1f, want ~32", ratio)
	}
	// Skewness: distinct keys well below ops (hot keys re-accessed).
	if st.DistinctKeys >= len(ops)/2 {
		t.Fatalf("no skew: %d distinct of %d", st.DistinctKeys, len(ops))
	}
	// Determinism.
	if UserInfo(UserInfoOptions{Ops: 30000})[100].Key != ops[100].Key {
		t.Fatal("generator not deterministic")
	}
}

func TestReconciliationShape(t *testing.T) {
	ops := Reconciliation(ReconciliationOptions{Ops: 30000})
	checkValues(t, ops)
	st := Summarize(ops)
	// Published shape: ~1:1 read:write.
	ratio := float64(st.Reads) / float64(st.Writes)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("read:write ratio %.2f, want ~1", ratio)
	}
	// Temporal locality: reads should target recent writes — the mean
	// access interval stays small relative to the stream's length.
	if st.MeanAccessInterval > float64(len(ops))/4 {
		t.Fatalf("poor temporal locality: %f", st.MeanAccessInterval)
	}
}

// TestCaseStudyStreamsArePinned: the streams fig1, fig12, fig13b and tab3
// replay at -scale 1, and the snapshots they replay against, are exactly
// the ones the figures were taken from. A generator edit that changes a
// kind, key or value, or the mean access interval tab3 prices, fails here.
func TestCaseStudyStreamsArePinned(t *testing.T) {
	digest := func(ops []Op) string {
		h := sha256.New()
		for _, op := range ops {
			c := 'R'
			if op.Kind == OpWrite {
				c = 'W'
			}
			fmt.Fprintf(h, "%c|%s|%x\n", c, op.Key, op.Value)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, tc := range []struct {
		name               string
		ops                []Op
		ds                 Dataset
		stream, preload    string
		meanAccessInterval float64
	}{
		{"UserInfo 20000", UserInfo(UserInfoOptions{Ops: 20000}), NewKV1(),
			"27dad669b5daed3f17639f6c648722805b0fe3e16cf5239c5f8086dad7740759",
			"d6dc94bbf0bfdcd51cfbe079f2dd0cffc261db1bed6194ebfe94d67fa9fabcab",
			893.6687798850265},
		{"UserInfo 25000", UserInfo(UserInfoOptions{Ops: 25000}), NewKV1(),
			"0a9ba298ae990f6239b735cc95e016ce01fecd27721171d4fe9d63854a0f0fc3",
			"e440d52f10820ce1c27518b268f308e21b8148fc47f4f895f6818269664efa57",
			1130.394287434938},
		{"Reconciliation 25000", Reconciliation(ReconciliationOptions{Ops: 25000}), NewKV2(),
			"42028aaec49a9b7849b85d3ae5c94e10949ed2121981563c9b3d7d1cf1837978",
			"11abfc7e3772715c3c1f91534c1c7e6ec2116e5adbdf57ebfb2046f019d22d92",
			1196.5453892788769},
	} {
		if got := digest(tc.ops); got != tc.stream {
			t.Errorf("%s: stream digest %s, want %s", tc.name, got, tc.stream)
		}
		if got := digest(Preload(tc.ops, tc.ds)); got != tc.preload {
			t.Errorf("%s: preload digest %s, want %s", tc.name, got, tc.preload)
		}
		if got := Summarize(tc.ops).MeanAccessInterval; got != tc.meanAccessInterval {
			t.Errorf("%s: mean access interval %v, want %v", tc.name, got, tc.meanAccessInterval)
		}
	}
}
