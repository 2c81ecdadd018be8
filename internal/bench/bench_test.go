package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tierbase/internal/workload"
)

// tiny returns options that keep experiment runtime in CI range.
func tiny(t *testing.T) RunOpts {
	t.Helper()
	return RunOpts{Scale: 0.08, Dir: t.TempDir()}
}

func cell(r *Result, rowMatch func([]string) bool, col int) (float64, bool) {
	for _, row := range r.Rows {
		if rowMatch(row) {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{"fig1", "fig7", "fig8", "tab2", "fig9", "fig10", "fig11", "fig12", "fig13a", "fig13b", "tab3"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	r.AddNote("note %d", 7)
	s := r.String()
	if !strings.Contains(s, "x") || !strings.Contains(s, "note 7") {
		t.Fatalf("render: %s", s)
	}
}

func TestDriveCountsErrors(t *testing.T) {
	sys := failingKV{}
	ops := []workload.Op{{Kind: workload.OpUpdate, Key: "k", Value: []byte("v")}}
	dr := drive(sys, ops, 1)
	if dr.Errors != 1 {
		t.Fatalf("errors %d", dr.Errors)
	}
}

type failingKV struct{}

func (failingKV) Set(string, []byte) error   { return strErr("boom") }
func (failingKV) Get(string) ([]byte, error) { return nil, strErr("key not found") }

type strErr string

func (e strErr) Error() string { return string(e) }

// TestMeasureOverheadSane: the footprint measureTB reports is physical
// bytes a logical byte — raw holds its data in DRAM alone at a plausible
// overhead, and PBC holds fewer DRAM bytes than raw.
func TestMeasureOverheadSane(t *testing.T) {
	ds := workload.NewKV1()
	spec := workload.WorkloadB(200, ds)
	load, run := spec.LoadOps(), NewOpsMulti(spec, 400, 1)
	raw, err := measureTB(TBConfig{Name: "raw", Threads: 1}, cacheInst, t.TempDir(), load, run, 1)
	if err != nil {
		t.Fatal(err)
	}
	if raw.fp.DRAM < 1 || raw.fp.DRAM > 3 {
		t.Fatalf("raw dram ratio %.2f out of plausible range", raw.fp.DRAM)
	}
	if raw.fp.PMem != 0 || raw.fp.Disk != 0 {
		t.Fatalf("raw config should use DRAM alone: %+v", raw.fp)
	}
	pbc, err := measureTB(TBConfig{Name: "pbc", Threads: 1, Compressor: "pbc", TrainOn: ds}, cacheInst, t.TempDir(), load, run, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pbc.fp.DRAM >= raw.fp.DRAM {
		t.Fatalf("pbc overhead %.2f should be below raw %.2f", pbc.fp.DRAM, raw.fp.DRAM)
	}
}

func TestFig7Shapes(t *testing.T) {
	res, err := RunFig7(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	// 6 systems × 3 phases.
	if len(res.Rows) != 18 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		q, _ := strconv.ParseFloat(row[3], 64)
		if q <= 0 {
			t.Fatalf("non-positive throughput: %v", row)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	// This shape needs enough write volume for write-back's batching to
	// amortize its bookkeeping, and it measures wall-clock throughput, so
	// retry under CPU contention (e.g. parallel package benches).
	var wb, wt float64
	for attempt := 0; attempt < 3; attempt++ {
		res, err := RunFig8(RunOpts{Scale: 0.3, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 12 {
			t.Fatalf("rows %d", len(res.Rows))
		}
		// Core paper claim: write-back beats write-through on the load phase.
		var ok1, ok2 bool
		wb, ok1 = cell(res, func(r []string) bool { return r[0] == "write-back" && r[1] == "load" }, 2)
		wt, ok2 = cell(res, func(r []string) bool { return r[0] == "write-through" && r[1] == "load" }, 2)
		if !ok1 || !ok2 {
			t.Fatal("missing rows")
		}
		if wb > wt {
			return
		}
		t.Logf("attempt %d: wb %.1f vs wt %.1f — retrying", attempt, wb, wt)
	}
	t.Fatalf("write-back (%.1f) should beat write-through (%.1f) on load", wb, wt)
}

func TestTable2Shapes(t *testing.T) {
	res, err := RunTable2(RunOpts{Scale: 0.2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 3 datasets × 4 methods
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, dsName := range []string{"kv1", "kv2"} {
		pbc, _ := cell(res, func(r []string) bool { return r[0] == dsName && r[1] == "pbc" }, 2)
		dict, _ := cell(res, func(r []string) bool { return r[0] == dsName && r[1] == "zstd-d" }, 2)
		base, _ := cell(res, func(r []string) bool { return r[0] == dsName && r[1] == "zstd-b" }, 2)
		if !(pbc < dict && dict < base) {
			t.Fatalf("%s ratio ordering violated: pbc=%.4f dict=%.4f base=%.4f", dsName, pbc, dict, base)
		}
		// GET: PBC must beat the deflate variants (near-raw decode speed).
		gPBC, _ := cell(res, func(r []string) bool { return r[0] == dsName && r[1] == "pbc" }, 5)
		gDict, _ := cell(res, func(r []string) bool { return r[0] == dsName && r[1] == "zstd-d" }, 5)
		if gPBC <= gDict {
			t.Fatalf("%s GET: pbc (%.1f) should beat zstd-d (%.1f)", dsName, gPBC, gDict)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	res, err := RunFig10(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 { // 8 systems × 2 mixes
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Compression must cut TierBase's SC.
	for _, mix := range []string{"50/50", "95/5"} {
		raw, _ := cell(res, func(r []string) bool { return r[0] == mix && r[1] == "tierbase-s" }, 2)
		pbc, _ := cell(res, func(r []string) bool { return r[0] == mix && r[1] == "tierbase-pbc" }, 2)
		pm, _ := cell(res, func(r []string) bool { return r[0] == mix && r[1] == "tierbase-pmem" }, 2)
		if pbc >= raw {
			t.Fatalf("%s: pbc SC %.3f should be below raw %.3f", mix, pbc, raw)
		}
		if pm >= raw {
			t.Fatalf("%s: pmem SC %.3f should be below raw %.3f", mix, pm, raw)
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	res, err := RunFig11(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 { // 7 systems × 2 mixes
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Cassandra/HBase: SC must be far below redis-aof's (disk vs DRAM).
	cassSC, _ := cell(res, func(r []string) bool { return r[0] == "50/50" && r[1] == "cassandra" }, 2)
	redisSC, _ := cell(res, func(r []string) bool { return r[0] == "50/50" && r[1] == "redis-aof" }, 2)
	if cassSC >= redisSC {
		t.Fatalf("cassandra SC %.3f should be below redis-aof %.3f", cassSC, redisSC)
	}
}

func TestFig12Shapes(t *testing.T) {
	res, err := RunFig12(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 22 { // 11 systems × 2 cases
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Case 1: PBC must cut total cost vs raw (the 62% headline, direction only).
	raw, _ := cell(res, func(r []string) bool { return r[0] == "userinfo" && r[1] == "tierbase-raw" }, 4)
	pbc, _ := cell(res, func(r []string) bool { return r[0] == "userinfo" && r[1] == "tierbase-pbc" }, 4)
	if pbc >= raw {
		t.Fatalf("userinfo: pbc cost %.3f should be below raw %.3f", pbc, raw)
	}
	// Tiered configs must report a miss ratio.
	mr, ok := cell(res, func(r []string) bool { return r[0] == "userinfo" && r[1] == "tierbase-wt-4X" }, 5)
	if !ok || mr <= 0 || mr >= 1 {
		t.Fatalf("wt-4X MR %.3f", mr)
	}
}

func TestFig1Normalized(t *testing.T) {
	res, err := RunFig1(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	maxCost := 0.0
	for _, row := range res.Rows {
		c, _ := strconv.ParseFloat(row[3], 64)
		if c < 0 || c > 1.0001 {
			t.Fatalf("cost not normalized: %v", row)
		}
		if c > maxCost {
			maxCost = c
		}
	}
	if maxCost < 0.999 {
		t.Fatalf("max normalized cost %.3f != 1", maxCost)
	}
}

func TestFig13aShapes(t *testing.T) {
	res, err := RunFig13a(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Dictionary variant must dominate no-dict at the same level on SC.
	d1, _ := cell(res, func(r []string) bool { return r[0] == "zstd-dict-l6" }, 1)
	b1, _ := cell(res, func(r []string) bool { return r[0] == "zstd-l6" }, 1)
	if d1 >= b1 {
		t.Fatalf("dict SC %.3f should beat no-dict %.3f", d1, b1)
	}
}

func TestFig13bShapes(t *testing.T) {
	res, err := RunFig13b(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Higher X => lower SC (less cache) and higher MR.
	sc2, _ := cell(res, func(r []string) bool { return r[0] == "wb-2X" }, 1)
	sc5, _ := cell(res, func(r []string) bool { return r[0] == "wb-5X" }, 1)
	if sc5 >= sc2 {
		t.Fatalf("wb-5X SC %.3f should be below wb-2X %.3f", sc5, sc2)
	}
	mr2, _ := cell(res, func(r []string) bool { return r[0] == "wb-2X" }, 4)
	mr5, _ := cell(res, func(r []string) bool { return r[0] == "wb-5X" }, 4)
	if mr5 < mr2 {
		t.Fatalf("MR should not fall with smaller cache: 2X=%.3f 5X=%.3f", mr2, mr5)
	}
}

func TestTable3Shapes(t *testing.T) {
	res, err := RunTable3(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		v, _ := strconv.ParseFloat(row[2], 64)
		if v <= 0 {
			t.Fatalf("non-positive interval: %v", row)
		}
	}
	if len(res.Notes) == 0 || !strings.Contains(res.Notes[0], "recommended config") {
		t.Fatalf("missing recommendation note: %v", res.Notes)
	}
}

func TestFig9Timeline(t *testing.T) {
	if testing.Short() {
		t.Skip("timeline bench is wall-clock bound")
	}
	res, err := RunFig9(RunOpts{Scale: 0.05, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 10 {
		t.Fatalf("timeline too short: %d windows", len(res.Rows))
	}
	// During the burst, elastic throughput must exceed its low-phase rate.
	var lowE, burstE float64
	var lowN, burstN int
	for _, row := range res.Rows {
		tms, _ := strconv.Atoi(row[0])
		v, _ := strconv.ParseFloat(row[2], 64)
		if tms <= 1500 {
			lowE += v
			lowN++
		} else if tms <= 4500 {
			burstE += v
			burstN++
		}
	}
	if lowN == 0 || burstN == 0 {
		t.Fatal("phases missing")
	}
	if burstE/float64(burstN) <= lowE/float64(lowN) {
		t.Fatalf("elastic burst throughput (%.1f) should exceed low phase (%.1f)",
			burstE/float64(burstN), lowE/float64(lowN))
	}
}

// TestRowsAreTheirConfiguration: each kind of TierBase row runs the
// configuration its name says — raw holds its data in DRAM at a plausible
// overhead, compressed rows hold fewer DRAM bytes than raw, PMem rows
// offload, wt/wb NX rows evict and miss, wal rows write their log.
func TestRowsAreTheirConfiguration(t *testing.T) {
	ds := workload.NewKV1()
	spec := workload.WorkloadB(600, ds)
	load, run := spec.LoadOps(), NewOpsMulti(spec, 1200, 2)
	measure := func(cfg TBConfig) costSUT {
		t.Helper()
		sut, err := measureTB(cfg, cacheInst, t.TempDir(), load, run, 2)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return sut
	}
	raw := measure(TBConfig{Name: "raw", Threads: 1})
	if raw.fp.DRAM < 1 || raw.fp.DRAM > 3 || raw.fp.PMem != 0 || raw.fp.Disk != 0 || raw.tiered {
		t.Fatalf("raw: %+v", raw)
	}
	for _, cfg := range []TBConfig{
		{Name: "pbc", Threads: 1, Compressor: "pbc", TrainOn: ds},
		{Name: "zstd-dict-l1", Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds},
		{Name: "zstd-l9", Threads: 1, Compressor: "zstd-b", CompressLevel: 9, TrainOn: ds},
	} {
		if got := measure(cfg).fp.DRAM; got >= raw.fp.DRAM {
			t.Errorf("%s holds %.3f DRAM bytes a logical byte, raw %.3f", cfg.Name, got, raw.fp.DRAM)
		}
	}
	if pm := measure(TBConfig{Name: "pmem", Threads: 1, PMem: true}); pm.fp.PMem <= 0 {
		t.Errorf("pmem row offloads nothing: %+v", pm.fp)
	}
	for _, persist := range []string{"wt", "wb"} {
		cfg := TBConfig{Name: persist + "-5X", Threads: 1, Persist: persist, CacheRatioX: 5,
			ExpectedLogicalBytes: logicalBytes(load), RTT: missRTT}
		sut := measure(cfg)
		if !sut.tiered || sut.mr <= 0 || sut.fp.DRAM >= raw.fp.DRAM || sut.fp.Disk <= 0 {
			t.Errorf("%s: tiered %v, MR %.3f, DRAM %.3f (raw %.3f), disk %.3f", cfg.Name,
				sut.tiered, sut.mr, sut.fp.DRAM, raw.fp.DRAM, sut.fp.Disk)
		}
	}
	val := ds.Record(1)
	for _, persist := range []string{"wal", "wal-pmem"} {
		dir := t.TempDir()
		sys, err := BuildTierBase(TBConfig{Threads: 1, Persist: persist}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Set("k", val); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		var logged int64
		filepath.Walk(filepath.Join(dir, "wal"), func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				logged += fi.Size()
			}
			return nil
		})
		if logged < int64(len(val)) {
			t.Errorf("%s row logged %d bytes for a %d-byte value", persist, logged, len(val))
		}
	}
}
