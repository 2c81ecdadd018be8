package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// ledger is the document the full run prints and -compare reads. With
// -repeat each metric's value is the median over the sets, and the quartile
// and range fields say how far the sets of this one commit disagreed.
type ledger struct {
	Seeds     []int64                    `json:"seeds"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Why             string                  `json:"why"`
	Correct         bool                    `json:"correct"`
	Attempted       int64                   `json:"attempted"`
	Failed          int64                   `json:"failed"`
	LostAckedWrites int64                   `json:"lost_acked_writes"`
	Metrics         map[string]ledgerMetric `json:"metrics"`
	Shares          *shares                 `json:"shares,omitempty"`
}

type ledgerMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Kind    string  `json:"kind"` // "end_to_end" or "per_layer"
	Bound   float64 `json:"bound,omitempty"`
	Samples int64   `json:"samples"`
	// Set by -repeat: Spread is (q3-q1)/median, the measure the driver
	// holds against Bound; Range is (max-min)/median.
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Spread float64   `json:"spread,omitempty"`
	Range  float64   `json:"range,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// runLedger measures every workload, end to end and traced, repeat times,
// prints the ledger and returns the exit code: non-zero when any output
// check failed.
func runLedger(e *env, quick bool, seed int64, seconds float64, repeat int, out, noiseOut string) int {
	l := &ledger{Seconds: seconds, Workloads: map[string]*ledgerWorkload{}}
	runs := map[string][]values{}
	for r := 0; r < repeat; r++ {
		l.Seeds = append(l.Seeds, seed+int64(r))
		for _, s := range specs {
			if quick {
				s = s.quick()
			}
			fmt.Fprintf(os.Stderr, "benchmark: set %d/%d: %s\n", r+1, repeat, s.name)
			res, sh, err := measure(e, s, seed+int64(r), seconds, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			w := l.Workloads[s.name]
			if w == nil {
				w = &ledgerWorkload{Why: s.why, Correct: true}
				l.Workloads[s.name] = w
			}
			w.Correct = w.Correct && res.correct()
			w.Attempted += res.attempted
			w.Failed += res.failed
			w.LostAckedWrites += res.lost
			w.Shares = sh
			runs[s.name] = append(runs[s.name], res.vals)
			fmt.Fprintf(os.Stderr, "%s", sh)
		}
	}
	code := 0
	for name, w := range l.Workloads {
		w.Metrics = summarize(runs[name])
		if !w.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: output check failed: %d of %d ops failed, %d acked writes lost\n", name, w.Failed, w.Attempted, w.LostAckedWrites)
			code = 1
		}
	}
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if out != "" {
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if noiseOut != "" {
		if err := writeNoise(noiseOut, l); err != nil {
			fatal(err)
		}
	}
	return code
}

// summarize folds the runs of one workload into ledger metrics.
func summarize(runs []values) map[string]ledgerMetric {
	out := map[string]ledgerMetric{}
	add := func(defs []metricDef, kind string) {
		for _, d := range defs {
			m := ledgerMetric{Unit: d.unit, Better: d.better, Kind: kind, Bound: d.bound}
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = r[d.name].Value
				m.Samples = r[d.name].Samples
			}
			if len(runs) > 1 {
				m.Values = append([]float64(nil), vals...)
				m.Q1, m.Q3 = quartiles(vals)
			}
			m.Value = median(vals)
			if len(runs) > 1 && m.Value != 0 {
				m.Spread = (m.Q3 - m.Q1) / m.Value
				m.Range = (vals[len(vals)-1] - vals[0]) / m.Value // median left vals sorted
			}
			out[d.name] = m
		}
	}
	add(endToEnd, "end_to_end")
	add(perLayer, "per_layer")
	return out
}

// writeNoise writes the A/A spreads of a -repeat ledger on their own:
// workload -> metric -> [spread, range].
func writeNoise(path string, l *ledger) error {
	noise := map[string]map[string][2]float64{}
	for name, w := range l.Workloads {
		noise[name] = map[string][2]float64{}
		for metric, m := range w.Metrics {
			noise[name][metric] = [2]float64{m.Spread, m.Range}
		}
	}
	doc := struct {
		About     string                           `json:"about"`
		Seeds     []int64                          `json:"seeds"`
		Workloads map[string]map[string][2]float64 `json:"workloads"`
	}{"A/A spread of one commit: [(q3-q1)/median, (max-min)/median] over the sets", l.Seeds, noise}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := &ledger{}
	if err := json.Unmarshal(b, l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// unboundedThreshold is the change a metric without a bound must exceed to be
// called better or worse when the base ledger carries no wider spread. Such
// verdicts inform; only metrics with a bound set the exit code.
const unboundedThreshold = 0.10

// verdict classifies new against base. worsening is the relative change in
// the metric's bad direction.
func verdict(base, now ledgerMetric) (worsening float64, v string) {
	if base.Value == 0 {
		if now.Value == 0 {
			return 0, "same"
		}
		return 0, "unresolved" // no base to take a ratio with
	}
	worsening = (now.Value - base.Value) / base.Value
	if base.Better == "higher" {
		worsening = -worsening
	}
	limit := base.Bound
	if limit == 0 {
		limit = max(unboundedThreshold, base.Spread)
	} else if base.Spread > base.Bound {
		return worsening, "unresolved" // the base disagrees with itself by more than the bound
	}
	switch {
	case worsening > limit:
		return worsening, "worse"
	case worsening < -limit:
		return worsening, "better"
	}
	return worsening, "same"
}

// compareLedgers prints one row per (workload, metric) and returns non-zero
// when a metric with a bound is worse or more operations failed.
func compareLedgers(basePath, newPath string) int {
	base, err := readLedger(basePath)
	if err != nil {
		fatal(err)
	}
	now, err := readLedger(newPath)
	if err != nil {
		fatal(err)
	}
	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tA/A spread\tverdict")
	for _, s := range specs {
		bw, nw := base.Workloads[s.name], now.Workloads[s.name]
		if bw == nil || nw == nil {
			continue
		}
		if ratio(float64(nw.Failed), float64(nw.Attempted)) > ratio(float64(bw.Failed), float64(bw.Attempted)) || nw.LostAckedWrites > bw.LostAckedWrites {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d of %d\t%d of %d\t\t0\t\tworse\n", s.name, bw.Failed, bw.Attempted, nw.Failed, nw.Attempted)
			code = 1
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				b, okb := bw.Metrics[d.name]
				n, okn := nw.Metrics[d.name]
				if !okb || !okn {
					continue
				}
				_, v := verdict(b, n)
				bound := "-"
				if b.Bound > 0 {
					bound = fmt.Sprintf("%.2f", b.Bound)
					if v == "worse" {
						code = 1
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g\t%.3f of %.4g\t%s\t%.3f\t%s\n",
					s.name, d.name, b.Value, b.Unit, n.Value, ratio(n.Value, b.Value), b.Value, bound, b.Spread, v)
			}
		}
	}
	tw.Flush()
	return code
}
