// Package bench is the experiment harness: one driver per table/figure of
// the paper's evaluation (§6), each regenerating the same rows/series the
// paper reports, using the cost-optimization framework of §5.3 (load a
// snapshot, replay operations, measure MaxPerf/MaxSpace, compute costs).
// measureTB is that loop's one measurement of a TierBase row; pricing is
// internal/core's (PerCostUnit, SmoothPC/SmoothSC). The harness is also
// the framework's ConfigEvaluator (Evaluator), which cost-advisor runs on
// the workload its flags describe.
//
// Scaling note: the paper's testbed runs Redis-class
// systems at ~100k QPS/core against 10 GB datasets. This harness runs
// in-process Go engines that are substantially faster per core, so each
// cost experiment declares its workload *relative to a measured reference*
// (e.g. fig10's 80k-QPS-on-100k-capable becomes 0.8 × MaxPerf of the
// single-thread reference). Relative positions — who wins, by what factor,
// where lines cross — are the reproduction target, not absolute numbers.
//
// What is measured is the shipping stack: every TierBase row is built by
// internal/stack, the builder tierbase.Open and tierbase-server use, from
// what the row's name says (compressor, PMem,
// policy, cache ratio, storage RTT). What the harness adds is its own model
// of a deployment: an elastic pool per instance, the wal/wal-pmem rows'
// AOF-style log, a per-op CPU cost (fig9) and replicas counted as DRAM.
//
// One part of that model departs from the shipping code on purpose. The
// in-memory part of an op runs on the instance's pool; a tiered row's
// round trip to its storage tier runs off it, on the caller. That stands in
// for the paper's non-blocking storage path (§4.1: the event loop stays
// responsive while a storage write is in flight). tierbase-server and the
// embedded Store run the whole op on a worker; measured that way the
// tiered rows' PC grows several-fold and the cheapest configuration of
// fig13b moves off wb-5X (ROADMAP, Known gaps). The paper's cost shapes
// depend on a non-blocking storage path the shipping code does not have.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"tierbase/internal/metrics"
	"tierbase/internal/workload"
)

// RunOpts tunes an experiment run.
type RunOpts struct {
	// Scale multiplies operation/record counts (default 1.0). Benches use
	// small defaults so the full suite finishes on a laptop; raise for
	// tighter confidence.
	Scale float64
	// Dir is the scratch directory for persistent configurations.
	Dir string
}

func (o *RunOpts) fill() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
}

func (o RunOpts) n(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 10 {
		n = 10
	}
	return n
}

// Result is one experiment's output table.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a free-text note.
func (r *Result) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Experiment is one registered driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(o RunOpts) (*Result, error)
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Cost comparison in TierBase (normalized SC/PC/Cost)", RunFig1},
		{"fig7", "Caching systems: throughput and p99, single vs multi-thread", RunFig7},
		{"fig8", "Persistence mechanisms: WAL, WAL-PMem, write-back, write-through", RunFig8},
		{"tab2", "Compression techniques: ratio and SET/GET throughput", RunTable2},
		{"fig9", "Elastic threading under workload burst (throughput timeline)", RunFig9},
		{"fig10", "Cost of caching systems (50/50 and 95/5 mixes)", RunFig10},
		{"fig11", "Cost of databases with persistence (50/50 and 95/5 mixes)", RunFig11},
		{"fig12", "Case studies: User Info Service and Capital Reconciliation", RunFig12},
		{"fig13a", "Compression-level space-performance trade-off", RunFig13a},
		{"fig13b", "Cache-ratio space-performance trade-off (write-back NX)", RunFig13b},
		{"tab3", "Break-even intervals between configurations", RunTable3},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- measurement core ---

// kvOp is the minimal op surface every measured system exposes.
type kvOp interface {
	Set(key string, val []byte) error
	Get(key string) ([]byte, error)
}

// driveResult is one throughput measurement.
type driveResult struct {
	QPS    float64
	P99    time.Duration
	Mean   time.Duration
	Errors int
}

// drive replays ops against sys with the given concurrency, measuring
// throughput and latency. Missing keys on Get are not errors (cold reads).
func drive(sys kvOp, ops []workload.Op, workers int) driveResult {
	if workers < 1 {
		workers = 1
	}
	hist := metrics.NewHistogram()
	var errs int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	chunk := (len(ops) + workers - 1) / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(ops) {
			hi = len(ops)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(ops []workload.Op) {
			defer wg.Done()
			local := 0
			for _, op := range ops {
				t0 := time.Now()
				var err error
				switch op.Kind {
				case workload.OpRead:
					_, err = sys.Get(op.Key)
					if err != nil && isNotFound(err) {
						err = nil
					}
				default:
					err = sys.Set(op.Key, op.Value)
				}
				hist.RecordDuration(time.Since(t0))
				if err != nil {
					local++
				}
			}
			mu.Lock()
			errs += int64(local)
			mu.Unlock()
		}(ops[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	qps := float64(len(ops)) / elapsed
	return driveResult{
		QPS:    qps,
		P99:    time.Duration(hist.P99()),
		Mean:   time.Duration(int64(hist.Mean())),
		Errors: int(errs),
	}
}

func isNotFound(err error) bool {
	// The harness spans several packages' not-found errors; string match
	// keeps it dependency-light here.
	s := err.Error()
	return strings.Contains(s, "not found") || strings.Contains(s, "nil reply")
}

// fmtQPS renders throughput in kqps.
func fmtQPS(qps float64) string { return fmt.Sprintf("%.1f", qps/1000) }

// fmtDur renders a latency value in microseconds.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000) }

// fmtF renders a float with 3 decimals.
func fmtF(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3f", v)
}

// fmtRatio renders a compression ratio with 4 decimals.
func fmtRatio(v float64) string { return fmt.Sprintf("%.4f", v) }

// sortRowsBy sorts result rows by a numeric column.
func sortRowsBy(rows [][]string, col int) {
	sort.SliceStable(rows, func(i, j int) bool {
		var a, b float64
		fmt.Sscanf(rows[i][col], "%f", &a)
		fmt.Sscanf(rows[j][col], "%f", &b)
		return a < b
	})
}
