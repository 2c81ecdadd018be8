package bench

import (
	"math"
	"testing"

	"tierbase/internal/core"
	"tierbase/internal/workload"
)

// near is equality within 1e-9 relative; infinities equal themselves.
func near(got, want float64) bool {
	if math.IsInf(want, 0) || want == 0 {
		return got == want
	}
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// TestPricingParity pins what the figures print for a table of
// measurements: every instance they price on and every footprint shape.
// The expected values were computed by the harness's own pricing code
// before it moved into core (per-medium headroom 0.85, tiered space costs
// summed over the cache and storage instances).
func TestPricingParity(t *testing.T) {
	for _, c := range []struct {
		name           string
		sut            costSUT
		qps, dataGB    float64
		wantPC, wantSC float64
	}{
		{"dram only", costSUT{inst: cacheInst, qps: 250000, fp: core.Footprint{DRAM: 1.9}},
			200000, 10, 0.80000000000000004, 5.5882352941176476},
		{"dram + pmem", costSUT{inst: pmemInst, qps: 210000, fp: core.Footprint{DRAM: 0.35, PMem: 1.6}},
			200000, 10, 1.1904761904761905, 1.9607843137254903},
		{"dram + pmem, dram binds", costSUT{inst: pmemInst, qps: 210000, fp: core.Footprint{DRAM: 1.2, PMem: 0.4}},
			200000, 10, 1.1904761904761905, 4.4117647058823533},
		{"dram + disk", costSUT{inst: bigInst, qps: 90000, fp: core.Footprint{DRAM: 0.2, Disk: 1.3}},
			36000, 10, 1.6000000000000001, 0.58823529411764708},
		{"dual replica dram", costSUT{inst: bigInst, qps: 300000, fp: core.Footprint{DRAM: 3.8}},
			36000, 10, 0.47999999999999998, 11.176470588235295},
		{"tiered", costSUT{inst: cacheInst, qps: 120000, fp: core.Footprint{DRAM: 0.4, Disk: 1.1}, tiered: true},
			250000, 20, 2.0833333333333335, 2.4540441176470589},
		{"tiered pmem cache", costSUT{inst: pmemInst, qps: 110000, fp: core.Footprint{DRAM: 0.1, PMem: 0.3, Disk: 1.1}, tiered: true},
			250000, 20, 2.8409090909090908, 0.83639705882352944},
		{"pmem absent", costSUT{inst: cacheInst, qps: 200000, fp: core.Footprint{DRAM: 0.3, PMem: 1.5}},
			200000, 10, 1, math.Inf(1)},
		{"disk absent", costSUT{inst: cacheInst, qps: 200000, fp: core.Footprint{DRAM: 0.3, Disk: 1.5}},
			200000, 10, 1, math.Inf(1)},
		{"no throughput", costSUT{inst: cacheInst, fp: core.Footprint{DRAM: 1.9}},
			200000, 10, math.Inf(1), 5.5882352941176476},
		{"empty footprint", costSUT{inst: cacheInst, qps: 180000},
			200000, 10, 1.1111111111111112, 0},
	} {
		e := price([]costSUT{c.sut}, c.qps, c.dataGB)[0]
		if !near(e.PC, c.wantPC) || !near(e.SC, c.wantSC) || e.Cost != math.Max(e.PC, e.SC) {
			t.Errorf("%s: PC %.17g SC %.17g cost %g, want PC %.17g SC %.17g", c.name, e.PC, e.SC, e.Cost, c.wantPC, c.wantSC)
		}
	}

	// tab3 compares rows per unit of instance cost, with headroom.
	for _, c := range []struct {
		sut             costSUT
		perf, wantSpace float64
	}{
		{costSUT{name: "raw", inst: cacheInst, qps: 250000, fp: core.Footprint{DRAM: 1.9}}, 250000, 1.7894736842105263},
		{costSUT{name: "pmem", inst: pmemInst, qps: 210000, fp: core.Footprint{DRAM: 0.35, PMem: 1.6}}, 168000, 5.0999999999999996},
		{costSUT{name: "pbc", inst: cacheInst, qps: 150000, fp: core.Footprint{DRAM: 0.8}}, 150000, 4.25},
	} {
		m := core.DefaultTolerance.Apply(c.sut.measured())
		if m.Config != c.sut.name || !near(m.MaxPerfQPS, c.perf) || !near(m.MaxSpaceGB, c.wantSpace) {
			t.Errorf("tab3 %s: %+v, want %.17g QPS, %.17g GB", c.sut.name, m, c.perf, c.wantSpace)
		}
	}
}

// TestAdvisorPricesPMemOnItsContainer: the pmem row holds part of its data
// in PMem and is priced on the 1.25-cost DRAM + PMem container, by the
// footprint it measured; speeds scale so raw reaches refQPS.
func TestAdvisorPricesPMemOnItsContainer(t *testing.T) {
	e := NewEvaluator(workload.WorkloadB(600, workload.NewKV1()), 1200, 0.1, 100000, t.TempDir())
	pm, err := e.Measure(core.Config{Name: "pmem"})
	if err != nil {
		t.Fatal(err)
	}
	suts, _ := e.suts()
	fp := suts["pmem"].fp
	if fp.PMem <= 0 {
		t.Fatalf("pmem row holds nothing in PMem: %+v", fp)
	}
	if want := math.Min(4/fp.DRAM, 12/fp.PMem) / 1.25; !near(pm.MaxSpaceGB, want) {
		t.Fatalf("pmem MaxSpace %.4f GB a cost unit, want min(4/%.3f, 12/%.3f)/1.25 = %.4f", pm.MaxSpaceGB, fp.DRAM, fp.PMem, want)
	}
	raw, err := e.Measure(core.Config{Name: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	if !near(raw.MaxPerfQPS, 100000) || !near(pm.MaxPerfQPS, suts["pmem"].qps/suts["raw"].qps*100000/1.25) {
		t.Fatalf("raw %.0f QPS, pmem %.0f QPS a cost unit", raw.MaxPerfQPS, pm.MaxPerfQPS)
	}
}
