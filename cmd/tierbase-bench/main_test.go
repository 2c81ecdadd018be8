package main

import (
	"errors"
	"strings"
	"testing"

	"tierbase/internal/bench"
)

func fakeExperiment(id string, err error) bench.Experiment {
	return bench.Experiment{ID: id, Title: id, Run: func(bench.RunOpts) (*bench.Result, error) {
		if err != nil {
			return nil, err
		}
		return &bench.Result{ID: id, Title: id, Header: []string{"x"}}, nil
	}}
}

// TestFailedExperimentIsAnError: a failing experiment makes run return an
// error naming it (so the command exits non-zero), and does not stop the
// experiments after it.
func TestFailedExperimentIsAnError(t *testing.T) {
	reg := []bench.Experiment{
		fakeExperiment("bad", errors.New("boom")),
		fakeExperiment("good", nil),
	}
	var out strings.Builder
	err := run([]string{"-experiment", "all", "-dir", t.TempDir()}, &out, reg)
	if err == nil || !strings.Contains(err.Error(), "bad") || strings.Contains(err.Error(), "good") {
		t.Fatalf("run all = %v, want an error naming only bad", err)
	}
	if !strings.Contains(out.String(), "bad: FAILED: boom") || !strings.Contains(out.String(), "=== good: good ===") {
		t.Fatalf("output:\n%s", out.String())
	}
	if err := run([]string{"-experiment", "bad", "-dir", t.TempDir()}, &out, reg); err == nil {
		t.Fatal("run -experiment bad returned nil")
	}
	if err := run([]string{"-experiment", "good", "-dir", t.TempDir()}, &out, reg); err != nil {
		t.Fatalf("run -experiment good: %v", err)
	}
}

// TestListIsTheRegistry: -list prints one line per registered experiment,
// in order, and the registry is the paper's eleven tables and figures.
func TestListIsTheRegistry(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out, bench.Registry()); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := "fig1 fig7 fig8 tab2 fig9 fig10 fig11 fig12 fig13a fig13b tab3"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("-list ids = %q, want %q", got, want)
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	ran := false
	reg := []bench.Experiment{{ID: "fig1", Run: func(bench.RunOpts) (*bench.Result, error) {
		ran = true
		return &bench.Result{}, nil
	}}}
	var out strings.Builder
	err := run([]string{"-experiment", "fig99"}, &out, reg)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("run -experiment fig99 = %v, want an error naming fig99", err)
	}
	if ran || out.Len() > 0 {
		t.Fatalf("an unknown id ran something: ran=%v output %q", ran, out.String())
	}
}
