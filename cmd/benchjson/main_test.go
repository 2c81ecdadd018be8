package main

import "testing"

func TestParseLineBasic(t *testing.T) {
	r, ok := parseLine("BenchmarkTieredBatchGet-8   68431   17450 ns/op   2912 B/op   34 allocs/op")
	if !ok {
		t.Fatal("line should parse")
	}
	if r.Name != "BenchmarkTieredBatchGet" || r.CPUs != 8 {
		t.Fatalf("name/cpus: %q %d", r.Name, r.CPUs)
	}
	if r.Iterations != 68431 || r.NsPerOp != 17450 {
		t.Fatalf("iters/ns: %d %f", r.Iterations, r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 2912 {
		t.Fatalf("B/op: %v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 34 {
		t.Fatalf("allocs/op: %v", r.AllocsPerOp)
	}
	if len(r.Extra) != 0 {
		t.Fatalf("unexpected extra: %v", r.Extra)
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	// b.ReportMetric units must land in Extra whatever they look like: the
	// client mux benchmarks report rates, the cache skew suite a hit
	// percentage, whose unit has no slash, the engine what a key costs (the
	// artifact's before/after of a record-layout change).
	for _, c := range []struct {
		line  string
		name  string
		ns    float64
		extra map[string]float64
	}{
		{
			line:  "BenchmarkMuxGet64GoroutinesRTT1ms-8   6378   37648 ns/op   23.98 reqs/flush   0.035 flushes/op",
			name:  "BenchmarkMuxGet64GoroutinesRTT1ms",
			ns:    37648,
			extra: map[string]float64{"reqs/flush": 23.98, "flushes/op": 0.035},
		},
		{
			line:  "BenchmarkSkewSuite/hotspot-shift-2 \t  200000\t       896.3 ns/op\t        87.32 hit_pct\t     226 B/op\t       4 allocs/op",
			name:  "BenchmarkSkewSuite/hotspot-shift",
			ns:    896.3,
			extra: map[string]float64{"hit_pct": 87.32},
		},
		{
			line:  "BenchmarkEngineHeapPerKey-2 	       1	  68491996 ns/op	        43.50 accounted-B/key	         0.7341 free-B/key	        44.24 heap-B/key	 9120968 B/op	  100414 allocs/op",
			name:  "BenchmarkEngineHeapPerKey",
			ns:    68491996,
			extra: map[string]float64{"accounted-B/key": 43.50, "free-B/key": 0.7341, "heap-B/key": 44.24},
		},
	} {
		r, ok := parseLine(c.line)
		if !ok {
			t.Fatalf("line should parse: %q", c.line)
		}
		if r.Name != c.name || r.NsPerOp != c.ns {
			t.Errorf("%s: name %q, ns/op %v", c.name, r.Name, r.NsPerOp)
		}
		if len(r.Extra) != len(c.extra) {
			t.Errorf("%s: extra = %v, want %v", c.name, r.Extra, c.extra)
		}
		for unit, want := range c.extra {
			if got, ok := r.Extra[unit]; !ok || got != want {
				t.Errorf("%s: %s = %v (extra=%v), want %v", c.name, unit, got, r.Extra, want)
			}
		}
	}
}

func TestParseLineSkipsNonBenchLines(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \ttierbase/internal/client\t1.9s",
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"BenchmarkNoNs-8 100 12 somethingelse",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("line %q should not parse", line)
		}
	}
}

func TestParseLineNoCPUSuffix(t *testing.T) {
	r, ok := parseLine("BenchmarkPlain 100 250 ns/op")
	if !ok {
		t.Fatal("line should parse")
	}
	if r.Name != "BenchmarkPlain" || r.CPUs != 1 {
		t.Fatalf("name/cpus: %q %d", r.Name, r.CPUs)
	}
}
