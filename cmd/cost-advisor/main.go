// Command cost-advisor applies the Space-Performance Cost Model (§2, §5)
// to a described workload: it micro-benchmarks the candidate TierBase
// configurations — raw, pmem, zstd-d, pbc and a write-through row caching
// -cache-ratio of the data — on a synthetic workload of that shape, with
// the measurement loop the paper-figure harness runs (internal/bench). It
// prices each configuration per unit of its own container's cost with the
// cost metrics of Definition 2 (internal/core), and prints the optimal
// configuration (Theorem 2.1), the write-through row's measured miss ratio
// beside a zipfian miss-ratio curve's, the break-even intervals
// (Equation 5 / Table 3), and the storage recommendation for the
// workload's access interval.
//
// Usage:
//
//	cost-advisor -qps 80000 -data-gb 10 -read-ratio 0.95 -dataset kv1 \
//	             -distribution zipfian -cache-ratio 0.1 -access-interval 1018
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"tierbase/internal/bench"
	"tierbase/internal/core"
	"tierbase/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("cost-advisor: %v", err)
	}
}

// run measures and prices the configurations for the workload args
// describe and writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cost-advisor", flag.ContinueOnError)
	var (
		qps        = fs.Float64("qps", 80000, "workload queries per second")
		dataGB     = fs.Float64("data-gb", 10, "total data volume in GB")
		readRatio  = fs.Float64("read-ratio", 0.95, "fraction of reads; the rest are updates")
		dataset    = fs.String("dataset", "kv1", "value shape: cities | kv1 | kv2 | random")
		dist       = fs.String("distribution", "zipfian", "key distribution: "+strings.Join(workload.Distributions, " | "))
		interval   = fs.Float64("access-interval", 0, "mean per-key access interval in seconds (0 = skip the recommendation)")
		refQPS     = fs.Float64("ref-qps", 100000, "per-core QPS of the raw configuration on your fleet: every measured speed is scaled by the factor that makes raw's reach it")
		keys       = fs.Int("probe-keys", 20000, "records loaded into each configuration")
		ops        = fs.Int("probe-ops", 200000, "operations replayed against each configuration")
		cacheRatio = fs.Float64("cache-ratio", 0.1, "the write-through row's cache capacity as a fraction of the data")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := workload.ParseDataset(*dataset)
	switch {
	case err != nil:
		return fmt.Errorf("-dataset: %w", err)
	case !slices.Contains(workload.Distributions, *dist):
		return fmt.Errorf("-distribution: unknown distribution %q", *dist)
	case *cacheRatio <= 0 || *cacheRatio >= 1:
		return fmt.Errorf("-cache-ratio %g is outside (0, 1)", *cacheRatio)
	case *readRatio < 0 || *readRatio > 1:
		return fmt.Errorf("-read-ratio %g is outside [0, 1]", *readRatio)
	case *qps <= 0 || *dataGB <= 0 || *refQPS <= 0 || *keys <= 0 || *ops <= 0:
		return errors.New("-qps, -data-gb, -ref-qps, -probe-keys and -probe-ops must be positive")
	}

	w := core.Workload{
		Name: "advised", QPS: *qps, DataSizeGB: *dataGB,
		ReadRatio: *readRatio, AvgRecordBytes: float64(ds.AvgRecordSize()),
	}
	fmt.Fprintf(out, "workload: %.0f QPS, %.1f GB, %.0f%% reads, ~%dB records (%s-shaped), %s keys\n",
		w.QPS, w.DataSizeGB, w.ReadRatio*100, int(w.AvgRecordBytes), ds.Name(), *dist)
	fmt.Fprintf(out, "measured on %d records and %d operations each, priced per unit of each one's container cost; speeds scaled so raw serves %.0f QPS\n\n",
		*keys, *ops, *refQPS)

	spec := workload.DefaultSpec(int64(*keys))
	spec.Dataset, spec.Distribution = ds, *dist
	spec.Mix = workload.Mix{ReadProportion: *readRatio}
	dir, err := os.MkdirTemp("", "cost-advisor")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ev := bench.NewEvaluator(spec, *ops, *cacheRatio, *refQPS, dir)
	configs := ev.Configs()
	rep, err := core.FindOptimal(w, core.StandardContainer, configs, ev, core.DefaultTolerance)
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.String())
	if len(rep.Failures) > 0 {
		return fmt.Errorf("%d of %d configurations failed to measure", len(rep.Failures), len(configs))
	}

	for _, c := range configs {
		if mr, ok := ev.MissRatio(c.Name); ok {
			fmt.Fprintf(out, "\n%s miss ratio: %.4f measured, %.4f on a zipfian curve at cache ratio %.2f\n",
				c.Name, mr, core.ZipfMRC(int64(*keys), workload.ZipfianTheta)(*cacheRatio), *cacheRatio)
		}
	}

	fmt.Fprintln(out, "\nbreak-even intervals (Eq. 5):")
	ms := make([]core.Measured, len(rep.Evaluations))
	for i, e := range rep.Evaluations {
		ms[i] = e.Measured
	}
	for _, e := range core.BreakEvenTable(core.StandardContainer, ms, w.AvgRecordBytes) {
		fmt.Fprintf(out, "  %-12s -> %-12s %10.1f s\n", e.Fast, e.Slow, e.IntervalS)
	}
	if *interval > 0 {
		best, err := core.RecommendStorage(core.StandardContainer, ms, w.AvgRecordBytes, *interval)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nfor a %.0f s mean access interval, use: %s\n", *interval, best.Config)
	}
	return nil
}
