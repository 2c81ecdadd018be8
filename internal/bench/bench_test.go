package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tierbase/internal/baselines"
	"tierbase/internal/lsm"
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
	ids := map[string]bool{}
	for _, e := range reg {
		ids[e.ID] = true
	}
	for _, id := range want {
		if !ids[id] {
			t.Fatalf("missing experiment %s", id)
		}
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
	ops := []workload.Op{{Kind: workload.OpWrite, Key: "k", Value: []byte("v")}}
	dr := drive(sys, ops, 1)
	if dr.Errors != 1 {
		t.Fatalf("errors %d", dr.Errors)
	}
}

// TestDriveTimesAFloorOfWholePasses: a replay far shorter than driveFloor
// is repeated in whole passes until the floor has passed, and its
// throughput is the ops run over that time, so a system whose every call
// costs a fixed time reads within a few percent of one call over that
// time, and never more. A run whose calls themselves took more than a
// tenth over cost in all (Spin waits on the wall clock, so a call the
// machine took the CPU from runs long) says nothing about drive and is run
// again, five times at most; the run that counts meets the bounds.
func TestDriveTimesAFloorOfWholePasses(t *testing.T) {
	const cost = 50 * time.Microsecond
	ops := []workload.Op{{Kind: workload.OpRead, Key: "a"}, {Kind: workload.OpWrite, Key: "b"}}
	var dr driveResult
	for again := 0; ; again++ {
		sys := spinKV{cost: cost, calls: new(int), took: new(time.Duration)}
		start := time.Now()
		dr = drive(sys, ops, 1)
		if took := time.Since(start); took < driveFloor {
			t.Fatalf("drive returned after %v, under its floor of %v", took, driveFloor)
		}
		if over := *sys.took - time.Duration(*sys.calls)*cost; over*10 <= time.Duration(*sys.calls)*cost || again == 5 {
			break
		}
	}
	if want := float64(time.Second / cost); dr.QPS > want || dr.QPS < 0.9*want {
		t.Fatalf("QPS %.0f for calls of %v each, want %.0f less at most a tenth", dr.QPS, cost, want)
	}
	if dr.Errors != 0 {
		t.Fatalf("errors %d", dr.Errors)
	}
}

// spinKV is a system whose every call costs cost of CPU. It counts its
// calls and the wall time they took.
type spinKV struct {
	cost  time.Duration
	calls *int
	took  *time.Duration
}

func (s spinKV) Set(string, []byte) error   { s.spin(); return nil }
func (s spinKV) Get(string) ([]byte, error) { s.spin(); return nil, nil }

func (s spinKV) spin() {
	start := time.Now()
	baselines.Spin(s.cost)
	*s.took += time.Since(start)
	*s.calls++
}

type failingKV struct{}

func (failingKV) Set(string, []byte) error   { return strErr("boom") }
func (failingKV) Get(string) ([]byte, error) { return nil, strErr("key not found") }

type strErr string

func (e strErr) Error() string { return string(e) }

// valueShare is what of the logical bytes ops write is values. A raw row
// keeps every value byte as it is, but packs its keys (internal/engine,
// "The key, packed"), so this, not 1, is the least DRAM ratio it can have.
func valueShare(ops []workload.Op) float64 {
	var vals int64
	for _, op := range ops {
		vals += int64(len(op.Value))
	}
	return float64(vals) / float64(logicalBytes(ops))
}

// TestMeasureOverheadSane: the footprint measure reports is physical
// bytes a logical byte — raw holds its data in DRAM alone at a plausible
// overhead, every value byte and at most three times the data, and PBC
// holds fewer DRAM bytes than raw.
func TestMeasureOverheadSane(t *testing.T) {
	ds := workload.NewKV1()
	spec := workload.WorkloadB(200, ds)
	load, run := spec.LoadOps(), NewOpsMulti(spec, 400, 1)
	raw, err := measure(row{"raw", cacheInst, 0, &TBConfig{Threads: 1}}, t.TempDir(), load, run, 1)
	if err != nil {
		t.Fatal(err)
	}
	if raw.fp.DRAM < valueShare(load) || raw.fp.DRAM > 3 {
		t.Fatalf("raw dram ratio %.2f out of plausible range (values are %.2f of the data)", raw.fp.DRAM, valueShare(load))
	}
	if raw.fp.PMem != 0 || raw.fp.Disk != 0 {
		t.Fatalf("raw config should use DRAM alone: %+v", raw.fp)
	}
	pbc, err := measure(row{"pbc", cacheInst, 0, &TBConfig{Threads: 1, Compressor: "pbc", TrainOn: ds}}, t.TempDir(), load, run, 1)
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
	// The unit is tierbase-raw's SC, and a cost is the larger of its SC
	// and PC (core.Evaluate).
	if raw := res.Rows[0]; raw[0] != "tierbase-raw" || raw[1] != fmtF(1) {
		t.Fatalf("first row %v, want tierbase-raw at SC 1", raw)
	}
	for _, row := range res.Rows {
		var v [3]float64
		for i := range v {
			v[i], _ = strconv.ParseFloat(row[1+i], 64)
		}
		if v[0] <= 0 || v[1] <= 0 || math.Abs(v[2]-math.Max(v[0], v[1])) > 1e-3 {
			t.Fatalf("row %v: want positive SC and PC, cost their max", row)
		}
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
// offload, wt/wb NX rows evict and miss, wal rows write their log. A wt/wb
// NX row's cache budget is 1/X of the bytes it is opened for, with 1.6×
// headroom, and it has no pool; every other row has a pool and an
// unbounded cache.
func TestRowsAreTheirConfiguration(t *testing.T) {
	ds := workload.NewKV1()
	spec := workload.WorkloadB(600, ds)
	load, run := spec.LoadOps(), NewOpsMulti(spec, 1200, 2)
	tb := func(name string, cfg TBConfig) costSUT {
		t.Helper()
		sut, err := measure(row{name, cacheInst, 0, &cfg}, t.TempDir(), load, run, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return sut
	}
	raw := tb("raw", TBConfig{Threads: 1})
	if raw.fp.DRAM < valueShare(load) || raw.fp.DRAM > 3 || raw.fp.PMem != 0 || raw.fp.Disk != 0 || raw.tiered {
		t.Fatalf("raw: %+v", raw)
	}
	for name, cfg := range map[string]TBConfig{
		"pbc":          {Threads: 1, Compressor: "pbc", TrainOn: ds},
		"zstd-dict-l1": {Threads: 1, Compressor: "zstd-d", CompressLevel: 1, TrainOn: ds},
		"zstd-l9":      {Threads: 1, Compressor: "zstd-b", CompressLevel: 9, TrainOn: ds},
	} {
		if got := tb(name, cfg).fp.DRAM; got >= raw.fp.DRAM {
			t.Errorf("%s holds %.3f DRAM bytes a logical byte, raw %.3f", name, got, raw.fp.DRAM)
		}
	}
	if pm := tb("pmem", TBConfig{Threads: 1, PMem: true}); pm.fp.PMem <= 0 {
		t.Errorf("pmem row offloads nothing: %+v", pm.fp)
	}
	for _, persist := range []string{"wt", "wb"} {
		sut := tb(persist+"-5X", TBConfig{Threads: 1, Persist: persist, CacheRatioX: 5})
		if !sut.tiered || sut.mr <= 0 || sut.fp.DRAM >= raw.fp.DRAM || sut.fp.Disk <= 0 {
			t.Errorf("%s: tiered %v, MR %.3f, DRAM %.3f (raw %.3f), disk %.3f", sut.name,
				sut.tiered, sut.mr, sut.fp.DRAM, raw.fp.DRAM, sut.fp.Disk)
		}
	}
	val := ds.Record(1)
	for _, persist := range []string{"wal", "wal-pmem"} {
		dir := t.TempDir()
		sys, err := BuildTierBase(TBConfig{Threads: 1, Persist: persist}, dir, 0)
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
	logical := logicalBytes(load)
	for name, cfg := range map[string]TBConfig{
		"raw":      {Threads: 1},
		"pbc":      {Threads: 1, Compressor: "pbc", TrainOn: ds},
		"pmem":     {Threads: 1, PMem: true},
		"wal":      {Threads: 1, Persist: "wal"},
		"wal-pmem": {Threads: 1, Persist: "wal-pmem"},
		"wt-5X":    {Persist: "wt", CacheRatioX: 5},
		"wb-3X":    {Persist: "wb", CacheRatioX: 3},
	} {
		sys, err := row{name, cacheInst, 0, &cfg}.open(t.TempDir(), logical)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := sys.(*TBSystem)
		tiered := cfg.Persist == "wt" || cfg.Persist == "wb"
		var budget int64
		if tiered {
			budget = int64(float64(logical) / cfg.CacheRatioX * 1.6)
		}
		if got := s.st.CapacityBytes(); got != budget || (s.pool != nil) == tiered {
			t.Errorf("%s: cache budget %d B, want %d; pool %v", name, got, budget, s.pool != nil)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicasCountOnEveryRowKind: a row's replica count is one more copy
// of what it holds in DRAM and PMem, whatever kind of row it is. One
// worker replays the same ops in the same order at 0 and at 1 replica, so
// the two measurements differ by that copy alone.
func TestReplicasCountOnEveryRowKind(t *testing.T) {
	spec := workload.WorkloadB(300, workload.NewKV1())
	load, run := spec.LoadOps(), NewOpsMulti(spec, 600, 1)
	for _, r := range []row{
		{"tierbase-pmem", pmemInst, 0, &TBConfig{Threads: 1, PMem: true}},
		{"redis", cacheInst, 0, nil},
	} {
		dual := r
		dual.replicas = 1
		suts, err := measureRows([]row{r, dual}, t.TempDir(), load, run, 1)
		if err != nil {
			t.Fatal(err)
		}
		one, two := suts[0].fp, suts[1].fp
		if one.DRAM <= 0 || (r.tb != nil) != (one.PMem > 0) {
			t.Fatalf("%s holds DRAM %.4f, PMem %.4f a logical byte", r.name, one.DRAM, one.PMem)
		}
		if two.DRAM != 2*one.DRAM || two.PMem != 2*one.PMem {
			t.Errorf("%s with a replica holds DRAM %.4f, PMem %.4f; without, %.4f and %.4f",
				r.name, two.DRAM, two.PMem, one.DRAM, one.PMem)
		}
	}
}

// TestMeasureRefusesFailedOps: a row whose replay fails ops is refused,
// with its name and its failed-op count, not priced as the fastest row.
// An LSM refuses an empty key, so cassandra fails each write of one.
func TestMeasureRefusesFailedOps(t *testing.T) {
	spec := workload.WorkloadB(100, workload.NewKV1())
	load := spec.LoadOps()
	run := append(NewOpsMulti(spec, 200, 1), workload.Op{Kind: workload.OpWrite, Key: "", Value: []byte("v")},
		workload.Op{Kind: workload.OpWrite, Key: "", Value: []byte("w")})
	suts, err := measureRows([]row{{"cassandra", bigInst, 0, nil}}, t.TempDir(), load, run, 1)
	if err == nil || suts != nil {
		t.Fatalf("a row that failed ops was priced: %+v", suts)
	}
	if want := fmt.Sprintf("cassandra: 2 of %d ops failed", len(run)); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestSettleBringsStoredRowsToRest: a loaded row that stores to an LSM is
// at rest once settled: its memtables are flushed, L0 holds fewer tables
// than either compaction strategy's trigger (4), so compaction has nothing
// left to pick there, and a write-back cache holds no dirty key.
func TestSettleBringsStoredRowsToRest(t *testing.T) {
	spec := workload.WorkloadB(600, workload.NewKV1())
	load := spec.LoadOps()
	for _, r := range []row{
		{"cassandra", bigInst, 0, nil},
		{"hbase", bigInst, 0, nil},
		{"tierbase-wb-5X", cacheInst, 1, &TBConfig{Threads: 1, Persist: "wb", CacheRatioX: 5}},
	} {
		sys, err := r.open(t.TempDir(), logicalBytes(load))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range load {
			if err := sys.Set(op.Key, op.Value); err != nil {
				t.Fatal(err)
			}
		}
		if err := settle(sys); err != nil {
			t.Fatal(err)
		}
		var db *lsm.DB
		switch s := sys.(type) {
		case *TBSystem:
			if dirty := s.st.Stats().Dirty; dirty != 0 {
				t.Errorf("%s holds %d dirty keys", r.name, dirty)
			}
			db = s.st.DB
		case *baselines.LSMStore:
			db = s.DB()
		}
		st := db.Stats()
		if st.MemtableBytes != 0 || st.Immutables != 0 || st.TableCount == 0 || st.LevelFiles[0] >= 4 {
			t.Errorf("%s: memtable %d B, %d immutables, %d tables, %d in L0", r.name,
				st.MemtableBytes, st.Immutables, st.TableCount, st.LevelFiles[0])
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
