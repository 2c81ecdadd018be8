package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestDatasetsDeterministic(t *testing.T) {
	for _, ds := range []Dataset{NewCities(), NewKV1(), NewKV2(), NewRandom(64)} {
		a := ds.Record(42)
		b := ds.Record(42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: Record not deterministic", ds.Name())
		}
		c := ds.Record(43)
		if bytes.Equal(a, c) {
			t.Errorf("%s: distinct keys should yield distinct records", ds.Name())
		}
	}
}

func TestDatasetShapes(t *testing.T) {
	cities := NewCities().Record(7)
	if n := bytes.Count(cities, []byte(",")); n != 7 {
		t.Errorf("cities record should have 8 CSV fields, got %d commas: %s", n, cities)
	}
	kv1 := NewKV1().Record(7)
	if !bytes.HasPrefix(kv1, []byte(`{"user_id":`)) || !bytes.HasSuffix(kv1, []byte("}")) {
		t.Errorf("kv1 record should be JSON-shaped: %s", kv1)
	}
	kv2 := NewKV2().Record(7)
	if n := bytes.Count(kv2, []byte("|")); n != 9 {
		t.Errorf("kv2 record should have 10 pipe fields, got %d pipes: %s", n, kv2)
	}
}

func TestDatasetAvgSizeRoughlyRight(t *testing.T) {
	for _, ds := range []Dataset{NewCities(), NewKV1(), NewKV2()} {
		var total int
		const n = 500
		for i := int64(0); i < n; i++ {
			total += len(ds.Record(i))
		}
		avg := float64(total) / n
		claimed := float64(ds.AvgRecordSize())
		if math.Abs(avg-claimed)/claimed > 0.35 {
			t.Errorf("%s: AvgRecordSize %v but measured %.1f", ds.Name(), claimed, avg)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"kv1", "kv1"}, {"KV2", "kv2"}, {"random", "random"},
		{"cities", "cities"}, {"unknown", "cities"},
	} {
		if got := DatasetByName(tc.in).Name(); got != tc.want {
			t.Errorf("DatasetByName(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if ds, err := ParseDataset(tc.in); (err != nil) != (tc.in == "unknown") || (err == nil && ds.Name() != tc.want) {
			t.Errorf("ParseDataset(%q) = %v, %v", tc.in, ds, err)
		}
	}
}

func TestSample(t *testing.T) {
	s := Sample(NewKV1(), 32)
	if len(s) != 32 {
		t.Fatalf("sample size %d", len(s))
	}
	for _, rec := range s {
		if len(rec) == 0 {
			t.Fatal("empty sample record")
		}
	}
}

// TestSampleCoversClosedSets: the sample a compressor is trained on shows
// it every value of every closed set in the schema, and is the same sample
// in every process. (A stride of 17 through the generators' linear
// math/rand seeds never produced KV1 status "PENDING".)
func TestSampleCoversClosedSets(t *testing.T) {
	for _, tc := range []struct {
		ds    Dataset
		quote string // what delimits a field value on both sides
		sets  [][]string
	}{
		{NewKV1(), `"`, [][]string{kv1Status, kv1Channel, kv1City}},
		{NewKV2(), "|", [][]string{kv2Biz, kv2State, kv2Bank}},
	} {
		sample := Sample(tc.ds, 500)
		all := bytes.Join(sample, []byte{'\n'})
		for _, set := range tc.sets {
			for _, v := range set {
				if !bytes.Contains(all, []byte(tc.quote+v+tc.quote)) {
					t.Errorf("%s: %q occurs in no sampled record", tc.ds.Name(), v)
				}
			}
		}
		for i, rec := range Sample(tc.ds, 500) {
			if !bytes.Equal(rec, sample[i]) {
				t.Fatalf("%s: sample record %d differs between two calls", tc.ds.Name(), i)
			}
		}
	}
}

func TestLoadOps(t *testing.T) {
	spec := DefaultSpec(100)
	ops := spec.LoadOps()
	if len(ops) != 100 {
		t.Fatalf("load ops = %d, want 100", len(ops))
	}
	seen := map[string]bool{}
	for _, op := range ops {
		if op.Kind != OpInsert {
			t.Fatalf("load op kind %v", op.Kind)
		}
		if len(op.Value) == 0 {
			t.Fatal("load op without value")
		}
		if seen[op.Key] {
			t.Fatalf("duplicate key in load: %s", op.Key)
		}
		seen[op.Key] = true
		if !strings.HasPrefix(op.Key, "user") {
			t.Fatalf("key prefix missing: %s", op.Key)
		}
	}
}

func TestMixProportions(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      Spec
		wantReads float64
	}{
		{"A", WorkloadA(1000, NewCities()), 0.5},
		{"B", WorkloadB(1000, NewCities()), 0.95},
	} {
		g := NewGenerator(tc.spec, 0)
		ops := g.Ops(20000)
		st := Summarize(ops)
		frac := float64(st.Reads) / float64(st.Total)
		if math.Abs(frac-tc.wantReads) > 0.02 {
			t.Errorf("workload %s: read fraction %.3f, want ~%.2f", tc.name, frac, tc.wantReads)
		}
	}
}

func TestGeneratorKeysInPopulation(t *testing.T) {
	spec := WorkloadB(500, NewKV1())
	g := NewGenerator(spec, 3)
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if !strings.HasPrefix(op.Key, "user") {
			t.Fatalf("bad key %q", op.Key)
		}
		if op.Kind == OpUpdate && len(op.Value) == 0 {
			t.Fatal("update without value")
		}
		if op.Kind == OpRead && op.Value != nil {
			t.Fatal("read with value")
		}
	}
}

func TestGeneratorInsertGrowsPopulation(t *testing.T) {
	spec := DefaultSpec(100)
	spec.Mix = Mix{InsertProportion: 1.0}
	g := NewGenerator(spec, 0)
	op1 := g.Next()
	op2 := g.Next()
	if op1.Key == op2.Key {
		t.Fatal("inserts should use fresh keys")
	}
	if op1.Key != spec.Key(100) || op2.Key != spec.Key(101) {
		t.Fatalf("inserts should extend population: %s, %s", op1.Key, op2.Key)
	}
}

func TestGeneratorsWithDistinctOffsetsDiffer(t *testing.T) {
	spec := DefaultSpec(1000)
	a := NewGenerator(spec, 0).Ops(50)
	b := NewGenerator(spec, 1).Ops(50)
	same := 0
	for i := range a {
		if a[i].Key == b[i].Key && a[i].Kind == b[i].Kind {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("generators with different offsets produced identical streams")
	}
}

func TestSummarize(t *testing.T) {
	ops := []Op{
		{Kind: OpRead, Key: "a"},
		{Kind: OpRead, Key: "a"},
		{Kind: OpUpdate, Key: "b", Value: []byte("xy")},
		{Kind: OpInsert, Key: "c", Value: []byte("z")},
	}
	st := Summarize(ops)
	if st.Total != 4 || st.Reads != 2 || st.Writes != 2 || st.Uniques != 3 || st.Bytes != 3 {
		t.Fatalf("bad stats: %+v", st)
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "READ" || OpUpdate.String() != "UPDATE" ||
		OpInsert.String() != "INSERT" || OpScan.String() != "SCAN" ||
		OpReadModifyWrite.String() != "RMW" {
		t.Fatal("OpKind names wrong")
	}
	if OpKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestDistributionSelection(t *testing.T) {
	for _, dist := range []string{"zipfian", "uniform", "latest", "hotspot"} {
		spec := DefaultSpec(100)
		spec.Distribution = dist
		g := NewGenerator(spec, 0)
		for i := 0; i < 100; i++ {
			op := g.Next()
			if op.Key == "" {
				t.Fatalf("dist %s: empty key", dist)
			}
		}
	}
}
