package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tierbase/internal/workload"
)

// bruteStackDistance is the O(n²) reference implementation.
func bruteStackDistance(trace []string) []int {
	out := make([]int, len(trace))
	last := map[string]int{}
	for i, k := range trace {
		prev, ok := last[k]
		if !ok {
			out[i] = -1
		} else {
			distinct := map[string]struct{}{}
			for j := prev + 1; j < i; j++ {
				distinct[trace[j]] = struct{}{}
			}
			out[i] = len(distinct)
		}
		last[k] = i
	}
	return out
}

func TestStackDistancesSmall(t *testing.T) {
	trace := []string{"a", "b", "c", "a", "b", "b"}
	got := StackDistances(trace)
	want := []int{-1, -1, -1, 2, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestStackDistancesMatchBrute(t *testing.T) {
	f := func(raw []uint8) bool {
		trace := make([]string, len(raw))
		for i, b := range raw {
			trace[i] = fmt.Sprintf("k%d", b%16)
		}
		got := StackDistances(trace)
		want := bruteStackDistance(trace)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMRCFullCacheZeroSteadyMisses(t *testing.T) {
	trace := []string{"a", "b", "a", "b", "a", "b"}
	m := BuildMRC(trace)
	if m.distinct != 2 {
		t.Fatalf("distinct %d", m.distinct)
	}
	steady := m.Curve(true)
	if mr := steady(1.0); mr != 0 {
		t.Fatalf("steady MR at CR=1 should be 0, got %f", mr)
	}
	cold := m.Curve(false)
	if mr := cold(1.0); mr <= 0 {
		t.Fatalf("cold MR at CR=1 should include compulsory misses, got %f", mr)
	}
}

func TestMRCNonIncreasingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	z := workload.NewZipfian(500, 0.99)
	trace := make([]string, 20000)
	for i := range trace {
		trace[i] = fmt.Sprintf("k%d", z.Next(rng))
	}
	m := BuildMRC(trace)
	f := m.Curve(true)
	prev := f(0)
	for cr := 0.02; cr <= 1.0; cr += 0.02 {
		cur := f(cr)
		if cur > prev+1e-9 {
			t.Fatalf("MRC increased at CR=%.2f: %f -> %f", cr, prev, cur)
		}
		prev = cur
	}
}

func TestMRCSkewedBeatsUniform(t *testing.T) {
	// With 10% cache, a zipfian trace must have a far lower MR than a
	// uniform trace — the core premise of tiered storage (§2.5.2).
	rng := rand.New(rand.NewSource(5))
	n := int64(2000)
	z := workload.NewZipfian(n, 0.99)
	u := workload.NewUniform(n)
	zt := make([]string, 40000)
	ut := make([]string, 40000)
	for i := range zt {
		zt[i] = fmt.Sprintf("k%d", z.Next(rng))
		ut[i] = fmt.Sprintf("k%d", u.Next(rng))
	}
	zf := BuildMRC(zt).Curve(true)
	uf := BuildMRC(ut).Curve(true)
	if zf(0.1) >= uf(0.1) {
		t.Fatalf("zipf MR %.3f should beat uniform MR %.3f at CR=0.1", zf(0.1), uf(0.1))
	}
	if zf(0.1) > 0.5 {
		t.Fatalf("zipf MR at 10%% cache too high: %.3f", zf(0.1))
	}
}

func TestZipfMRCShape(t *testing.T) {
	f := ZipfMRC(10000, 0.99)
	if f(0) != 1 || f(1) != 0 {
		t.Fatalf("endpoints: f(0)=%f f(1)=%f", f(0), f(1))
	}
	prev := f(0)
	for cr := 0.05; cr <= 1.0; cr += 0.05 {
		cur := f(cr)
		if cur > prev+1e-9 {
			t.Fatalf("analytic MRC increased at %.2f", cr)
		}
		prev = cur
	}
	// Strong skew: 10% of items should absorb >50% of hits.
	if mr := f(0.1); mr > 0.5 {
		t.Fatalf("zipf(0.99) MR at CR=0.1 = %f, want < 0.5", mr)
	}
}

func TestZipfMRCDegenerate(t *testing.T) {
	f := ZipfMRC(0, 0.99) // clamps to 1 item
	if f(0.5) < 0 || f(0.5) > 1 {
		t.Fatal("out of range")
	}
}

func TestEmptyTrace(t *testing.T) {
	m := BuildMRC(nil)
	if mr := m.Curve(true)(0.5); mr != 0 {
		t.Fatalf("empty trace MR %f", mr)
	}
	if m.MissRatioAtKeys(10) != 0 {
		t.Fatal("empty MissRatioAtKeys")
	}
}

func TestFrameworkFindOptimal(t *testing.T) {
	capabilities := map[string]Measured{
		"raw":  {MaxPerfQPS: 100000, MaxSpaceGB: 2},
		"pbc":  {MaxPerfQPS: 50000, MaxSpaceGB: 8},
		"bust": {},
	}
	eval := evalFunc(func(cfg Config) (Measured, error) {
		m, ok := capabilities[cfg.Name]
		if !ok || cfg.Name == "bust" {
			return Measured{}, fmt.Errorf("unmeasurable")
		}
		return m, nil
	})
	w := Workload{Name: "case", QPS: 40000, DataSizeGB: 12}
	rep, err := FindOptimal(w, StandardContainer, []Config{
		{Name: "raw"}, {Name: "pbc"}, {Name: "bust"},
	}, eval, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	// raw: max(0.4, 6)=6 ; pbc: max(0.8, 1.5)=1.5 -> pbc wins.
	if rep.Best.Measured.Config != "pbc" {
		t.Fatalf("best %s", rep.Best.Measured.Config)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures: %v", rep.Failures)
	}
	if rep.String() == "" {
		t.Fatal("empty report")
	}
}

func TestFrameworkAllFail(t *testing.T) {
	eval := evalFunc(func(Config) (Measured, error) {
		return Measured{}, fmt.Errorf("nope")
	})
	if _, err := FindOptimal(wl, StandardContainer, []Config{{Name: "x"}}, eval, Tolerance{}); err == nil {
		t.Fatal("should fail when nothing measures")
	}
	if _, err := FindOptimal(wl, StandardContainer, nil, eval, Tolerance{}); err != ErrNoConfigs {
		t.Fatalf("empty: %v", err)
	}
}

// TestReportFailuresSorted: the report lists failed configurations in name
// order, so two renderings of one report are the same text.
func TestReportFailuresSorted(t *testing.T) {
	failing := []string{"zstd-d", "pmem", "wt-4x", "deflate", "raw-big", "pbc-old"}
	eval := evalFunc(func(cfg Config) (Measured, error) {
		if cfg.Name == "raw" {
			return Measured{MaxPerfQPS: 100000, MaxSpaceGB: 2}, nil
		}
		return Measured{}, fmt.Errorf("cannot measure %s", cfg.Name)
	})
	configs := []Config{{Name: "raw"}}
	for _, name := range failing {
		configs = append(configs, Config{Name: name})
	}
	rep, err := FindOptimal(wl, StandardContainer, configs, eval, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	first := rep.String()
	var order []string
	for _, line := range strings.Split(first, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "FAILED" {
			order = append(order, f[1])
		}
	}
	if len(order) != len(failing) || !sort.StringsAreSorted(order) {
		t.Fatalf("FAILED rows %v, want the %d failures in name order:\n%s", order, len(failing), first)
	}
	for i := 0; i < 20; i++ {
		if got := rep.String(); got != first {
			t.Fatalf("rendering %d differs:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}

// evalFunc adapts a function to ConfigEvaluator.
type evalFunc func(cfg Config) (Measured, error)

func (f evalFunc) Measure(cfg Config) (Measured, error) { return f(cfg) }
