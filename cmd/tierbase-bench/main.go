// Command tierbase-bench regenerates the paper's evaluation tables and
// figures (§6). Each experiment prints the same rows/series the paper
// reports; the ids and what each row models are in internal/bench.
//
// Usage:
//
//	tierbase-bench -list
//	tierbase-bench -experiment fig10
//	tierbase-bench -experiment all -scale 2.0
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
	"time"

	"tierbase/internal/bench"
)

func main() {
	err := run(os.Args[1:], os.Stdout, bench.Registry())
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("tierbase-bench: %v", err)
	}
}

// run lists or runs the experiments of reg as args select, writing each
// result table to out. An experiment that fails does not stop the others;
// run returns an error naming every one that failed.
func run(args []string, out io.Writer, reg []bench.Experiment) error {
	fs := flag.NewFlagSet("tierbase-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment id (fig1, fig7..fig13b, tab2, tab3) or 'all'")
	scale := fs.Float64("scale", 1.0, "workload scale multiplier")
	dir := fs.String("dir", "", "scratch directory (default: temp)")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range reg {
			fmt.Fprintf(out, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	todo := reg
	if *experiment != "all" {
		i := slices.IndexFunc(reg, func(e bench.Experiment) bool { return e.ID == *experiment })
		if i < 0 {
			return fmt.Errorf("unknown experiment %q (use -list)", *experiment)
		}
		todo = reg[i : i+1]
	}

	scratch := *dir
	if scratch == "" {
		var err error
		if scratch, err = os.MkdirTemp("", "tierbase-bench"); err != nil {
			return err
		}
		defer os.RemoveAll(scratch)
	}
	opts := bench.RunOpts{Scale: *scale, Dir: scratch}

	var failed []string
	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(out, "%s: FAILED: %v\n\n", e.ID, err)
			failed = append(failed, e.ID)
			continue
		}
		fmt.Fprintln(out, res.String())
		fmt.Fprintf(out, "(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed experiments: %s", strings.Join(failed, ", "))
	}
	return nil
}
