package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in workloads.go and metrics.go")

// streamHash digests what a seed fixes: the first n encoded requests of
// each connection and their Poisson due times.
func streamHash(s spec, seed int64, n int) [32]byte {
	h := sha256.New()
	var buf, scratch []byte
	for conn := 0; conn < loadConns; conn++ {
		st := newOpStream(s, seed, conn, loadConns)
		arr := newArrivals(seed, conn, float64(s.rate)/loadConns)
		for i := 0; i < n; i++ {
			buf = s.appendOp(buf[:0], st.next(), &scratch)
			buf = binary.BigEndian.AppendUint64(buf, uint64(arr.due))
			arr.advance()
			h.Write(buf)
		}
	}
	return [32]byte(h.Sum(nil))
}

func TestSeedFixesOpStreamAndSchedule(t *testing.T) {
	for _, s := range specs {
		s = s.quick()
		a, b, c := streamHash(s, 1, 2000), streamHash(s, 1, 2000), streamHash(s, 2, 2000)
		if a != b {
			t.Errorf("%s: the same seed gave two different op streams", s.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", s.name)
		}
	}
}

func TestValueSelfCheck(t *testing.T) {
	for _, s := range specs {
		var scratch []byte
		for _, kv := range [][2]uint32{{0, 0}, {7, 3}, {uint32(s.keys - 1), 1 << 20}} {
			k, v := kv[0], kv[1]
			val := s.appendValue(nil, k, v)
			if s.kind == valueRandom && len(val) != s.valueSize {
				t.Fatalf("%s: value of %d bytes, want %d", s.name, len(val), s.valueSize)
			}
			if !s.checkValue(k, v, val, &scratch) {
				t.Errorf("%s: key %d version %d does not round-trip", s.name, k, v)
			}
			if s.checkValue(k, v+1, val, &scratch) || s.checkValue(k^1, v, val, &scratch) || s.checkValue(k, v, nil, &scratch) {
				t.Errorf("%s: key %d version %d accepted as another key, version or nil", s.name, k, v)
			}
			for _, i := range []int{0, len(val) / 2, len(val) - 1} {
				bad := append([]byte(nil), val...)
				bad[i] ^= 1
				if s.checkValue(k, v, bad, &scratch) {
					t.Errorf("%s: corrupted byte %d accepted", s.name, i)
				}
			}
			want := fmt.Sprintf("key %d version %d", k, v)
			if got := s.describeValue(val); got != want {
				t.Errorf("%s: describeValue = %q, want %q", s.name, got, want)
			}
		}
	}
}

func TestPercentileHelpers(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Three windows over [0, 30): their maxima are 3, 100, 6. The pooled
	// maximum is the stall in window two; the median of windows is 6.
	at := []float64{1, 2, 3, 11, 12, 13, 21, 22, 23}
	val := []float64{1, 2, 3, 4, 100, 5, 6, 5, 4}
	if got := medianOfWindows(at, val, 30, 3, 100); got != 6 {
		t.Errorf("medianOfWindows = %v, want 6", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// returns [3.5, 24.0, 160.0].
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{name: spBackground, parent: noSpan, start: 0, end: 1000},
		{name: spClientRequest, parent: 0, start: 100, end: 200},   // 1
		{name: spServerResidence, parent: 1, start: 110, end: 190}, // 2
		{name: spDecompress, parent: 2, start: 120, end: 130},      // 3
		{name: spLSMPut, parent: 2, start: 140, end: 180},          // 4
		{name: spWALAppend, parent: 4, start: 150, end: 160},       // 5
		{name: spLSMGet, parent: 2, start: 170, end: 185},          // 6: overlaps 4 by 10
		{name: spLSMBatchPut, parent: 0, start: 300, end: 400},     // 7: background
		{name: spWALAppend, parent: 7, start: 310, end: 330},       // 8
	}
	want := []int64{1000, 20, 25, 10, 30, 10, 15, 80, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spanNames[spans[i].name], got[i], want[i])
		}
	}
	a := analyze(spans, []uint8{opSet})
	if len(a.reqs) != 1 || a.escaped != 0 {
		t.Fatalf("analyze: %d requests, %d escaped spans", len(a.reqs), a.escaped)
	}
	r := a.reqs[0]
	// client 20, server 25, compress 10, lsm 30+15, wal 10 (the background
	// append is not the request's).
	if r.total != 100 || r.residence != 80 || r.layer != [len(shareLayers)]int64{20, 25, 10, 45, 10, 0} {
		t.Errorf("request aggregate = %+v", r)
	}
	if len(a.dur[spWALAppend]) != 2 {
		t.Errorf("wal.append calls = %d, want 2 (background included)", len(a.dur[spWALAppend]))
	}
}

func TestRecorderNestsAndClosesWithParent(t *testing.T) {
	r := newRecorder()
	r.reset()
	if r.begin(spCompress, noSpan) != noSpan {
		t.Fatal("span recorded while tracing is off")
	}
	r.on.Store(true)
	root := r.begin(spClientRequest, noSpan)
	res := r.begin(spServerResidence, noSpan)
	bg := r.begin(spLSMBatchPut, 0)
	inner := r.begin(spWALAppend, bg)
	r.end(inner)
	r.end(bg)
	r.end(root) // the reply was parsed before the server's Write returned
	r.end(res)
	outside := r.begin(spLSMGet, noSpan)
	r.end(outside)
	for id, want := range map[int32]int32{root: 0, res: root, bg: 0, inner: bg, outside: 0} {
		if got := r.spans[id].parent; got != want {
			t.Errorf("span %d (%s): parent %d, want %d", id, spanNames[r.spans[id].name], got, want)
		}
	}
	if r.spans[res].end != r.spans[root].end {
		t.Errorf("residence ends at %d, its parent at %d", r.spans[res].end, r.spans[root].end)
	}
}

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonBounded  `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type jsonBounded struct {
	jsonMetric
	Bound float64 `json:"bound"`
}

// runSeconds is the measuring time the driver passes as --seconds.
const runSeconds = 12

func wantBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, s := range specs {
		b.Workloads = append(b.Workloads, jsonWorkload{s.name, s.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonBounded{jsonMetric{d.name, d.unit, d.better}, d.bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonMetric{d.name, d.unit, d.better})
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json and the Go tables together, both
// ways, and checks the limits the driver refuses a file for.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from the tables in workloads.go and metrics.go; run go test -run TestBenchmarkJSON -update")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, s := range specs {
		name(s.name)
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", s.name, len(s.why))
		}
	}
	for _, d := range endToEnd {
		name(d.name)
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	for _, d := range perLayer {
		name(d.name)
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", d)
		}
	}
	if !hasSetup || len(specs) < 2 || len(specs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json breaks a count or size limit of the contract")
	}
}

// TestQuickSmoke runs all four workloads end to end and traced at smoke
// size (10k keys, 3 s) against a freshly built tierbase-server.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns tierbase-server")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, s := range specs {
		start := time.Now()
		res, sh, err := measure(e, s.quick(), 1, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.lost != 0 || !res.correct() {
			t.Errorf("%s: %d of %d ops failed, %d acked writes lost, notes %q", s.name, res.failed, res.attempted, res.lost, res.errs)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				v, ok := res.vals[d.name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s: metric %s missing or not a number: %+v", s.name, d.name, v)
				}
			}
		}
		for _, d := range endToEnd {
			if res.vals[d.name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is zero", s.name, d.name)
			}
		}
		if len(res.vals) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics measured, %d defined", s.name, len(res.vals), len(endToEnd)+len(perLayer))
		}
		var sum float64
		for _, p := range sh.Percent {
			sum += p[0]
		}
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s: share table sums to %.1f%% of client.request p50", s.name, sum)
		}
		// The workloads separate the layers as README.md predicts.
		for metric, used := range map[string]bool{
			"lsm.gets_per_op":           s.name == "miss-read",
			"wal.appends_per_op":        s.readPct < 100,
			"replication.frames_per_op": s.replicated,
			"compress.calls_per_op":     s.compression,
		} {
			if got := res.vals[metric].Value; (got > 0) != used {
				t.Errorf("%s: %s = %v, want used = %v", s.name, metric, got, used)
			}
		}
		t.Logf("%s: %.1fs, %d ops", s.name, time.Since(start).Seconds(), res.attempted)
	}
}
