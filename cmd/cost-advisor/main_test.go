package main

import (
	"strconv"
	"strings"
	"testing"

	"tierbase/internal/bench"
	"tierbase/internal/core"
	"tierbase/internal/workload"
)

// probeEvaluator is the evaluator run builds for a kv1-shaped zipfian
// workload of keys records and ops operations, at small sizes.
func probeEvaluator(t *testing.T, keys int64, ops int, cacheRatio, refQPS float64) *bench.Evaluator {
	t.Helper()
	spec := workload.DefaultSpec(keys)
	spec.Dataset, spec.Distribution = workload.NewKV1(), "zipfian"
	return bench.NewEvaluator(spec, ops, cacheRatio, refQPS, t.TempDir())
}

// TestMeasureConfigs: every candidate is measured, and the compressed ones
// fit more data in a unit of container cost than raw does.
func TestMeasureConfigs(t *testing.T) {
	ev := probeEvaluator(t, 500, 2000, 0.1, 100000)
	space := map[string]float64{}
	for _, c := range ev.Configs() {
		m, err := ev.Measure(c)
		if err != nil || m.MaxPerfQPS <= 0 || m.MaxSpaceGB <= 0 {
			t.Fatalf("%s: %+v, %v", c.Name, m, err)
		}
		space[c.Name] = m.MaxSpaceGB
	}
	for _, name := range []string{"raw", "pmem", "zstd-d", "pbc", "wt-10X"} {
		if _, ok := space[name]; !ok {
			t.Fatalf("%s not measured: %v", name, space)
		}
	}
	for _, name := range []string{"zstd-d", "pbc"} {
		if space[name] <= space["raw"] {
			t.Fatalf("%s holds %.2f GB a cost unit, raw %.2f", name, space[name], space["raw"])
		}
	}
}

// TestLiveProbe: a write-through cache a tenth the size of the data misses
// some reads and serves most of a zipfian stream.
func TestLiveProbe(t *testing.T) {
	ev := probeEvaluator(t, 500, 4000, 0.1, 0)
	if _, err := ev.Measure(core.Config{Name: "wt-10X"}); err != nil {
		t.Fatal(err)
	}
	mr, ok := ev.MissRatio("wt-10X")
	if !ok || mr <= 0 || mr >= 0.9 {
		t.Fatalf("read-phase miss ratio %.3f (measured %v) at cache ratio 0.1", mr, ok)
	}
}

// TestRunPricesEveryRow: end to end at small sizes, every configuration is
// measured and priced, exactly one is marked best, and a write-through
// cache a tenth the size of the data misses some reads and serves most of
// a zipfian stream.
func TestRunPricesEveryRow(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-probe-keys", "500", "-probe-ops", "4000", "-cache-ratio", "0.1", "-access-interval", "1018"}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	priced, best := map[string]bool{}, 0
	var mr float64
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 5 && (strings.HasSuffix(f[4], "-critical") || f[4] == "balanced"):
			for _, v := range f[1:4] {
				if x, err := strconv.ParseFloat(v, 64); err != nil || x <= 0 {
					t.Errorf("row %q: %s is no positive cost", line, v)
				}
			}
			priced[f[0]] = true
			if f[len(f)-1] == "*" {
				best++
			}
		case strings.HasPrefix(line, "wt-10X miss ratio: "):
			mr, _ = strconv.ParseFloat(f[3], 64)
		}
	}
	for _, name := range []string{"raw", "pmem", "zstd-d", "pbc", "wt-10X"} {
		if !priced[name] {
			t.Errorf("%s not priced", name)
		}
	}
	if len(priced) != 5 || best != 1 {
		t.Errorf("%d rows priced, %d marked best", len(priced), best)
	}
	if mr <= 0 || mr >= 0.9 {
		t.Errorf("write-through miss ratio %.4f at cache ratio 0.1", mr)
	}
	if !strings.Contains(out.String(), "mean access interval, use: ") {
		t.Error("no recommendation for -access-interval")
	}
	if t.Failed() {
		t.Log(out.String())
	}
}

// TestRunRefusesBadFlags: a name no dataset or distribution has, a cache
// ratio outside (0, 1) and a non-positive size stop the run before it
// measures anything.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "kv3"},
		{"-distribution", "zipf"},
		{"-cache-ratio", "0"},
		{"-cache-ratio", "1"},
		{"-probe-keys", "0"},
		{"-probe-ops", "-5"},
		{"-data-gb", "0"},
		{"-qps", "-1"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil || out.Len() > 0 {
			t.Errorf("%v: error %v, output %q", args, err, out.String())
		}
	}
}
