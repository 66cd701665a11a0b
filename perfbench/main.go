// Command perfbench is booterscope's benchmark. It measures the
// detection daemon and the replay analysis on inputs it generates from
// a seed, checks every output against an oracle, and prints one JSON
// result line per run.
//
//	go run . --workload ingest --seed 17 --seconds 10 --trace 0
//
// Workloads: ingest (closed-loop Decode+Ingest with the archive on),
// analyze (repeated ReplayStudy.Analyze passes over an archive), live
// (open-loop UDP into the collector), restart (crash recovery), or all
// four in one process. --trace 0 reports the end-to-end metrics;
// --trace 1 runs the traced pass and reports the per-layer metrics.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// env is one benchmark run's settings.
type env struct {
	seed    uint64
	scale   float64 // multiplies the scenario's traffic volume; 1 in every real run
	seconds float64
	work    string // scratch directory, removed when the run ends
	traces  string // directory the traced run writes its spans to
	perturb bool   // perturb every reference, so every check must fail
}

var workloadNames = []string{"ingest", "analyze", "live", "restart"}

func main() {
	workload := flag.String("workload", "", "ingest, analyze, live, restart or all")
	seed := flag.Uint64("seed", 17, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement length per workload")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced per-layer pass")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fatalf("unknown workload %q (want %s or all)", n, strings.Join(workloadNames, ", "))
		}
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	// Run from the checkout root: build output and scratch space live
	// under .bench_build there.
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		fatalf("run from the repository root: %v", err)
	}
	work, err := os.MkdirTemp(filepath.Join(".bench_build"), "work-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, scale: 1, seconds: *seconds, work: work, traces: filepath.Join(".bench_build", "trace")}
	host := describeHost()

	var results []*result
	for _, n := range names {
		r, err := runWorkload(e, n, *trace == 1)
		if err != nil {
			os.RemoveAll(work)
			fatalf("%s: %v", n, err)
		}
		r.Host = host
		printJSON(map[string]any{"report": r})
		results = append(results, r)
	}
	printJSON(combine(results))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding output: %v", err)
	}
	fmt.Println(string(b))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's full report; the last output line carries
// its correct/attempted/failed/metrics part.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Host      hostInfo          `json:"host"`
	Inputs    map[string]any    `json:"inputs"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds numbers reported but not gated: the tail
	// percentiles, which on a shared 2-vCPU host vary too much between
	// runs to gate, failed_frac (0 when all is well, so it cannot be a
	// share of a median) and sample counts.
	Extra map[string]metric `json:"extra"`
	// Moves maps each per-layer metric to the end-to-end metric and
	// workload it should move, and Spans sums the recorded spans by
	// name (traced runs only).
	Moves    map[string]string      `json:"moves,omitempty"`
	Spans    map[string]spanSummary `json:"spans,omitempty"`
	Problems []string               `json:"problems,omitempty"`
}

// combine builds the final line. For one workload it is that
// workload's result; for all, metrics are prefixed by workload name.
func combine(rs []*result) map[string]any {
	if len(rs) == 1 {
		r := rs[0]
		return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
	}
	correct := true
	var attempted, failed uint64
	metrics := make(map[string]metric)
	for _, r := range rs {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
		for k, v := range r.Metrics {
			metrics[r.Workload+"."+k] = v
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}
