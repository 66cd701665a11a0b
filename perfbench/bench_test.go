package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The self-test runs every workload at toy size: a twentieth of the
// real scenario's traffic and a fraction of a second per measurement.
const (
	toyScale   = 0.05
	toySeconds = 0.2
	// confirmSeed is the second named seed: claims made while tuning on
	// another seed are confirmed on it.
	confirmSeed = 29
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func toyEnv(t *testing.T, seed uint64, perturb bool) *env {
	return &env{seed: seed, scale: toyScale, seconds: toySeconds, work: t.TempDir(), traces: t.TempDir(), perturb: perturb}
}

// checkMetrics requires got to hold exactly the named metrics, each
// with its unit.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range want {
		if seen[m.Name] {
			t.Errorf("%s: %s named twice in BENCHMARK.json", what, m.Name)
		}
		seen[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s not emitted", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: emits %s, which BENCHMARK.json does not name", what, name)
		}
	}
}

// TestEveryMetricOnce runs each benchmarked workload untraced and
// traced, and requires every metric BENCHMARK.json names, once, with
// its unit, and clean checks.
func TestEveryMetricOnce(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(perLayer) != len(f.PerLayer) {
		t.Errorf("perLayer has %d metrics, BENCHMARK.json %d", len(perLayer), len(f.PerLayer))
	}
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(toyEnv(t, 17, false), w.Name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			checkMetrics(t, w.Name, r.Metrics, want)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			if traced && r.Metrics["classify.alerts"].Value == 0 {
				t.Errorf("%s: the toy stream raises no alerts, so the alert checks compare nothing", w.Name)
			}
		}
	}
}

// TestPerturbedReferenceFails shows that every workload's check can
// fire: with each reference perturbed, failed_frac must be above 0.
func TestPerturbedReferenceFails(t *testing.T) {
	for _, name := range workloadNames {
		r, err := runWorkload(toyEnv(t, 17, true), name, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Failed == 0 || r.Correct {
			t.Errorf("%s: perturbed reference passed: correct=%v failed=%d of %d", name, r.Correct, r.Failed, r.Attempted)
		}
	}
}

// TestConfirmSeedClean runs the benchmarked workloads on the second
// named seed, which must be clean too.
func TestConfirmSeedClean(t *testing.T) {
	for _, w := range readBenchmarkFile(t).Workloads {
		r, err := runWorkload(toyEnv(t, confirmSeed, false), w.Name, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s on seed %d: correct=%v failed=%d %v", w.Name, confirmSeed, r.Correct, r.Failed, r.Problems)
		}
	}
}
