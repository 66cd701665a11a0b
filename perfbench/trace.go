package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into the program, recorded from the benchmark side.
// Spans of one datagram, analysis pass or recovery share an op id.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"` // index of the parent span in the same log, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the spans of one goroutine in memory. A nil *spanLog
// records nothing, which is how untraced runs call the same code.
type spanLog struct {
	name   string
	epoch  time.Time
	spans  []span
	lastOp int64
}

func newSpanLog(name string, epoch time.Time) *spanLog {
	return &spanLog{name: name, epoch: epoch}
}

// newOp returns a fresh operation id.
func (l *spanLog) newOp() int64 {
	if l == nil {
		return 0
	}
	l.lastOp++
	return l.lastOp
}

func (l *spanLog) begin(name string, op int64, parent int32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(l.epoch).Nanoseconds()})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if l == nil {
		return
	}
	l.spans[i].End = time.Since(l.epoch).Nanoseconds()
}

// durations returns the duration of every span with the given name, in
// nanoseconds.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is TotalMs minus the time the spans' children cover.
	SelfMs float64 `json:"self_ms"`
}

// summarize aggregates every log's spans by name.
func summarize(logs ...*spanLog) map[string]spanSummary {
	out := make(map[string]spanSummary)
	for _, l := range logs {
		children := make(map[int32][][2]int64)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
		}
		for i, s := range l.spans {
			d := s.End - s.Start
			sum := out[s.Name]
			sum.Count++
			sum.TotalMs += float64(d) / 1e6
			sum.SelfMs += float64(d-covered(children[int32(i)], s.Start, s.End)) / 1e6
			out[s.Name] = sum
		}
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		s, e := max(v[0], cur), min(v[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes every log's spans to path, one JSON object a line.
func writeSpans(path string, logs ...*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(struct {
				Log string `json:"log"`
				span
			}{l.name, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
