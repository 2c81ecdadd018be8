// Command benchmark is the repository's perf ledger: one end-to-end
// benchmark of a live tierbase-server over four named workloads, plus an
// in-process traced run that attributes each request's time to the layers
// under internal/. README.md defines every workload and metric.
//
//	go run -C benchmark . --workload hit-read --seed 1 --seconds 24 --trace 0
//	go run -C benchmark .                       # every workload, both runs
//	go run -C benchmark . -repeat 5 -out a.json # medians and spreads of 5 sets
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the one-line result the driver reads (default: every workload, full ledger)")
		seed         = flag.Int64("seed", 1, "drives key choice, op mix and arrival times")
		seconds      = flag.Float64("seconds", 24, "measuring time per run: half closed loop, half paced; the traced run takes 55% of it on top")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics; 1 adds the traced run and prints the per-layer metrics")
		quick        = flag.Bool("quick", false, "smoke test: 10k keys, a quarter of the rate")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times (seeds seed, seed+1, ...) and report medians, quartiles and spreads")
		out          = flag.String("out", "", "also write the ledger to this file")
		noiseOut     = flag.String("noise", "", "with -repeat: write the A/A spreads alone to this file")
		compare      = flag.Bool("compare", false, "compare two ledger files: benchmark -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two ledger files"))
		}
		os.Exit(compareLedgers(flag.Arg(0), flag.Arg(1)))
	}
	// The load generator is sized for a 2-core box it shares with the servers.
	runtime.GOMAXPROCS(2)

	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	// No child outlives us: not on a signal, a failure or a normal exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	var code int
	if *workloadName != "" {
		code = runOne(e, *workloadName, *quick, *seed, *seconds, *trace)
	} else {
		code = runLedger(e, *quick, *seed, *seconds, *repeat, *out, *noiseOut)
	}
	e.close()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// measure runs one workload: the end-to-end run, and with traced set the
// in-process traced run after it.
func measure(e *env, s spec, seed int64, seconds float64, traced bool) (*result, *shares, error) {
	res, err := e.runEndToEnd(s, seed, seconds)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.name, err)
	}
	var sh *shares
	if traced {
		if sh, err = e.runTraced(s, seed, seconds, res); err != nil {
			return nil, nil, fmt.Errorf("%s: traced run: %w", s.name, err)
		}
	}
	for _, m := range res.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", s.name, m)
	}
	return res, sh, nil
}

// runOne is the driver's contract: the last line of standard output is one
// JSON object holding every end-to-end metric (-trace 0) or every per-layer
// metric (-trace 1).
func runOne(e *env, name string, quick bool, seed int64, seconds float64, trace int) int {
	s, ok := specByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	if quick {
		s = s.quick()
	}
	res, sh, err := measure(e, s, seed, seconds, trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
		fmt.Fprint(os.Stderr, sh)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]metric{}}
	for _, d := range defs {
		line.Metrics[d.name] = metric{res.vals[d.name].Value, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.correct() {
		return 1
	}
	return 0
}
