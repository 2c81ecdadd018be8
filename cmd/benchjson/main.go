// Command benchjson converts `go test -bench` output (stdin) into a JSON
// array (stdout) — the machine-readable perf-trajectory artifact CI
// uploads as BENCH_<sha>.json alongside the raw bench.txt, so benchmark
// results across pushes can be diffed without reparsing text.
//
// Usage:
//
//	go test -bench . -benchtime 1x ./... | benchjson > BENCH_abc123.json
//
// Lines that are not benchmark results (package headers, PASS/ok) are
// skipped. The -cpu suffix on a benchmark name ("-8") is split into its
// own field so the same benchmark across GOMAXPROCS legs groups cleanly.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	CPUs        int     `json:"cpus"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Extra collects custom b.ReportMetric units (e.g. the client mux
	// benchmarks' "flushes/op", the skew suite's "hit_pct"), keyed by unit
	// string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if results == nil {
		results = []result{} // empty input: emit [], not null
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkTieredBatchGet-8   68431   17450 ns/op   2912 B/op   34 allocs/op
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	r := result{Name: fields[0], CPUs: 1}
	if i := strings.LastIndex(fields[0], "-"); i > 0 {
		if n, err := strconv.Atoi(fields[0][i+1:]); err == nil {
			r.Name, r.CPUs = fields[0][:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r.Iterations = iters
	// Remaining fields come in "<value> <unit>" pairs.
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seenNs = true
		case "B/op":
			n := int64(v)
			r.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			r.AllocsPerOp = &n
		default:
			// Custom b.ReportMetric units and b.SetBytes throughput, rates
			// ("flushes/op", "MB/s") and plain units ("hit_pct") alike.
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[fields[i+1]] = v
		}
	}
	return r, seenNs
}
