package core

import (
	"fmt"
	"sort"
	"strings"
)

// Cost Optimization Framework (paper §5.3): the sample → load → replay →
// calculate → iterate loop. The framework is measurement-agnostic: a
// ConfigEvaluator (internal/bench's Evaluator, which cost-advisor runs)
// loads a data snapshot into a candidate configuration, replays the
// workload, and reports the measured MaxPerf/MaxSpace per unit of instance
// cost (PerCostUnit). This package turns those measurements into costs and
// picks the optimum.

// Config names one candidate storage configuration to evaluate.
type Config struct {
	Name string
}

// ConfigEvaluator performs steps 2-3 of the framework for one candidate:
// load the sampled snapshot, replay the trace, and measure capability.
type ConfigEvaluator interface {
	Measure(cfg Config) (Measured, error)
}

// Report is the outcome of a framework run.
type Report struct {
	Workload    Workload
	Instance    Instance
	Evaluations []Evaluation
	Best        Evaluation
	// Failures records configurations that could not be measured.
	Failures map[string]error
}

// FindOptimal runs the framework's iteration step over all candidates
// (steps 2-4 repeated per configuration, step 5's comparison at the end).
func FindOptimal(w Workload, i Instance, configs []Config, eval ConfigEvaluator, tol Tolerance) (*Report, error) {
	if len(configs) == 0 {
		return nil, ErrNoConfigs
	}
	rep := &Report{Workload: w, Instance: i, Failures: map[string]error{}}
	var measured []Measured
	for _, cfg := range configs {
		m, err := eval.Measure(cfg)
		if err != nil {
			rep.Failures[cfg.Name] = err
			continue
		}
		if m.Config == "" {
			m.Config = cfg.Name
		}
		measured = append(measured, tol.Apply(m))
	}
	if len(measured) == 0 {
		return rep, fmt.Errorf("core: all %d configurations failed to measure", len(configs))
	}
	rep.Evaluations = Evaluate(w, i, measured)
	sort.Slice(rep.Evaluations, func(a, b int) bool {
		return rep.Evaluations[a].Cost < rep.Evaluations[b].Cost
	})
	rep.Best = rep.Evaluations[0]
	return rep, nil
}

// String renders the report as an aligned table, failed configurations
// last in name order.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: QPS=%.0f data=%.2fGB on %s\n",
		r.Workload.Name, r.Workload.QPS, r.Workload.DataSizeGB, r.Instance.Name)
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %10s\n", "config", "PC", "SC", "cost", "class")
	for _, e := range r.Evaluations {
		marker := " "
		if e.Measured.Config == r.Best.Measured.Config {
			marker = "*"
		}
		fmt.Fprintf(&b, "%-24s %10.3f %10.3f %10.3f %-22s %s\n",
			e.Measured.Config, e.PC, e.SC, e.Cost, Classify(r.Workload, r.Instance, e.Measured), marker)
	}
	failed := make([]string, 0, len(r.Failures))
	for name := range r.Failures {
		failed = append(failed, name)
	}
	sort.Strings(failed)
	for _, name := range failed {
		fmt.Fprintf(&b, "FAILED %-17s %v\n", name, r.Failures[name])
	}
	return b.String()
}
