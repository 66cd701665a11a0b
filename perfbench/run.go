package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run sets up its inputs; setup_s is the
// median, and the last set-up's inputs are measured.
const setupReps = 3

// repeatSetup builds inputs setupReps times and returns the last ones
// with every build's wall time.
func repeatSetup[T any](build func(rep int) (T, error), discard func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			discard(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build(rep)
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, times, nil
}

func setupStream(e *env) (*stream, []float64, error) {
	return repeatSetup(func(int) (*stream, error) { return buildStream(e.seed, e.scale) }, func(*stream) {})
}

func setupArchive(e *env) (*archive, []float64, error) {
	return repeatSetup(func(rep int) (*archive, error) {
		return buildArchive(filepath.Join(e.work, "archive", strings.Repeat("r", rep+1)), e.seed, e.scale)
	}, (*archive).close)
}

type crashInputs struct {
	s *stream
	c *crash
}

func setupCrash(e *env) (crashInputs, []float64, error) {
	return repeatSetup(func(rep int) (crashInputs, error) {
		s, err := buildStream(e.seed, e.scale)
		if err != nil {
			return crashInputs{}, err
		}
		c, err := buildCrash(filepath.Join(e.work, "crash", strings.Repeat("r", rep+1)), s)
		return crashInputs{s, c}, err
	}, func(ci crashInputs) { ci.c.close() })
}

// measureBudget is the untraced measurement's budget: closed-loop
// passes over the stream run for the whole window; analyze and restart
// operations are short enough to also need at least 100 samples, so
// that 10 lie beyond the reported p90.
func measureBudget(e *env, name string) budget {
	b := budget{seconds: e.seconds, minOps: 1, limit: 3 * e.seconds}
	if name == "analyze" || name == "restart" {
		b.minOps = 100
	}
	return b
}

// runWorkload sets up and measures one workload.
func runWorkload(e *env, name string, traced bool) (*result, error) {
	if traced {
		return runTraced(e, name)
	}
	inputs := map[string]any{"seed": e.seed, "scale": e.scale, "scenario_days": scenarioDays}
	var out *outcome
	var setups []float64
	var opRecords float64
	switch name {
	case "ingest", "live":
		s, t, err := setupStream(e)
		if err != nil {
			return nil, err
		}
		setups = t
		o, err := newOracle(s, e.perturb, false)
		if err != nil {
			return nil, err
		}
		inputs["stream_records"], inputs["datagrams"] = s.records, len(s.datagrams)
		runtime.GC()
		if name == "ingest" {
			out, err = runIngest(e, s, o, measureBudget(e, name), nil)
		} else {
			inputs["offered_records_per_s"] = liveRate
			out, err = runLive(e, s, o, measureBudget(e, name), nil)
		}
		if err != nil {
			return nil, err
		}
	case "analyze":
		a, t, err := setupArchive(e)
		if err != nil {
			return nil, err
		}
		defer a.close()
		setups = t
		if err := a.computeReference(e.seed, e.scale, e.perturb); err != nil {
			return nil, err
		}
		inputs["archive_records"] = a.records
		opRecords = float64(a.records)
		runtime.GC()
		if out, err = runAnalyze(a, measureBudget(e, name), nil); err != nil {
			return nil, err
		}
	case "restart":
		ci, t, err := setupCrash(e)
		if err != nil {
			return nil, err
		}
		defer ci.c.close()
		setups = t
		if err := ci.c.computeTwin(e.work, ci.s, e.perturb); err != nil {
			return nil, err
		}
		inputs["stream_records"], inputs["archive_records"] = ci.s.records, ci.c.archived
		inputs["checkpoint_at_record"] = ci.s.recordsBetween(0, ci.c.p1)
		opRecords = float64(ci.c.archived)
		runtime.GC()
		if out, err = runRestart(e, ci.s, ci.c, measureBudget(e, name), nil); err != nil {
			return nil, err
		}
	}

	rate := median(out.rates)
	if opRecords > 0 {
		rate = opRecords / (median(out.latency) / 1e3)
	}
	r := &result{
		Workload: name, Inputs: inputs,
		Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Problems: out.problems,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"records_per_s":  {rate, "rec/s"},
			"latency_p50_ms": {quantile(out.latency, 0.5), "ms"},
			"heap_peak_mb":   {median(out.heapPeaks) / 1e6, "MB"},
		},
		Extra: map[string]metric{
			"latency_p90_ms": {quantile(out.latency, 0.9), "ms"},
			"failed_frac":    {float64(out.failed) / float64(max(out.attempted, 1)), "ratio"},
			"operations":     {float64(len(out.latency)), "count"},
		},
	}
	if name == "ingest" || name == "live" {
		r.Extra["latency_p99_ms"] = metric{quantile(out.latency, 0.99), "ms"}
		r.Extra["passes"] = metric{float64(len(out.rates)), "count"}
	}
	if name == "live" {
		r.Extra["gen_late_p99_ms"] = metric{quantile(out.lateness, 0.99), "ms"}
	}
	return r, nil
}

// hostInfo is the host and provenance block of every result.
type hostInfo struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	OS           string `json:"os"`
	Arch         string `json:"arch"`
	Commit       string `json:"commit"`
	Dirty        *bool  `json:"dirty"`
	SourceSHA256 string `json:"source_sha256"`
}

func describeHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Commit: "unknown", SourceSHA256: sourceDigest(),
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		h.Commit = strings.TrimSpace(out)
		if st, err := git("status", "--porcelain"); err == nil {
			dirty := strings.TrimSpace(st) != ""
			h.Dirty = &dirty
		}
	}
	return h
}

// git runs git in the checkout without looking above it: a checkout
// that is not a repository reports no commit.
func git(args ...string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	return string(out), err
}

// sourceDigest hashes the Go sources and module files of the checkout,
// which identifies the code measured when there is no git commit.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
