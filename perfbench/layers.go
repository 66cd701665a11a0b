package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// perLayer lists the traced run's metrics, each with the end-to-end
// metric and workload it should move. Calls into one layer cannot be
// split apart from outside the program, so the metrics named
// "standalone" come from passes of that layer alone over the same
// inputs; the rest are read in situ from spans around public calls and
// from the counters the packages expose through RegisterTelemetry.
var perLayer = []struct{ name, unit, moves string }{
	{"ipfix.decode_ns_per_rec", "ns/rec", "records_per_s on ingest; latency_p50_ms on live (standalone Decode)"},
	{"ipfix.decode_alloc_b_per_rec", "B/rec", "records_per_s on ingest; latency_p50_ms on live (standalone Decode)"},
	{"ipfix.collector_queue_max", "count", "latency_p99_ms on live"},
	{"ipfix.collector_shed", "count", "failed_frac on live"},
	{"ipfix.lost_records", "count", "failed_frac on live"},
	{"service.ingest_ns_per_rec", "ns/rec", "records_per_s and latency_p50_ms on ingest and live"},
	{"service.ingest_self_ns_per_rec", "ns/rec", "records_per_s on ingest (Ingest minus in-situ Append)"},
	{"service.checkpoint_ms", "ms", "latency_p99_ms and records_per_s on ingest"},
	{"service.drain_ms", "ms", "records_per_s on ingest"},
	{"service.checkpoint_bytes", "B", "latency_p50_ms and latency_p90_ms on restart"},
	{"service.restore_ms", "ms", "latency_p50_ms and latency_p90_ms on restart"},
	{"service.replay_ms", "ms", "latency_p50_ms and latency_p90_ms on restart"},
	{"service.replay_records", "count", "latency_p50_ms and latency_p90_ms on restart"},
	{"service.replay_scanned_per_replayed", "ratio", "latency_p50_ms on restart"},
	{"flowstore.append_ns_per_rec", "ns/rec", "records_per_s and latency_p99_ms on ingest (in situ)"},
	{"flowstore.append_standalone_ns_per_rec", "ns/rec", "records_per_s and latency_p99_ms on ingest (standalone Append)"},
	{"flowstore.append_bytes_per_rec", "B/rec", "records_per_s on ingest and analyze"},
	{"flowstore.open_ms", "ms", "latency_p50_ms on restart"},
	{"flowstore.scan_batches_ns_per_rec", "ns/rec", "records_per_s on analyze (standalone ScanBatches)"},
	{"flowstore.blocks_pruned_frac", "ratio", "records_per_s on analyze"},
	{"flowstore.columns_decoded_frac", "ratio", "records_per_s on analyze"},
	{"flowstore.matched_frac", "ratio", "records_per_s on analyze"},
	{"flowstore.scan_alloc_b_per_rec", "B/rec", "heap_peak_mb on analyze"},
	{"flowstore.ordered_scan_ns_per_rec", "ns/rec", "latency_p50_ms on restart (standalone Scan)"},
	{"pipe.fanout_ns_per_rec", "ns/rec", "records_per_s on ingest (standalone sharded monitor)"},
	{"pipe.shard_queue_max", "count", "latency_p99_ms on ingest and live"},
	{"pipe.stage_p99_us", "us", "latency_p99_ms on ingest; latency_p90_ms on analyze"},
	{"classify.monitor_ns_per_rec", "ns/rec", "records_per_s on ingest (standalone serial Monitor)"},
	{"classify.matched_frac", "ratio", "invariant, pinned by the oracle"},
	{"classify.evicted_bins", "count", "invariant, pinned by the oracle"},
	{"classify.alerts", "count", "invariant, pinned by the oracle"},
	{"takedown.analyze_self_ns_per_rec", "ns/rec", "records_per_s on analyze (Analyze minus standalone ScanBatches)"},
	{"core.analyze_alloc_b_per_rec", "B/rec", "heap_peak_mb on analyze"},
	{"runtime.gc_cycles", "count", "latency_p90_ms/latency_p99_ms and heap_peak_mb on the traced workload"},
	{"runtime.gc_pause_ms", "ms", "latency_p90_ms/latency_p99_ms and heap_peak_mb on the traced workload"},
	{"runtime.alloc_b_per_rec", "B/rec", "latency_p90_ms/latency_p99_ms and heap_peak_mb on the traced workload"},
	{"bench.gen_late_p99_ms", "ms", "validity of latency on live: near 0 or the live run is invalid"},
	{"bench.trace_overhead_frac", "ratio", "traced against untraced latency_p50_ms of the traced workload"},
}

// sweepBudget runs each other workload once in the traced run: one
// pass over the stream, or ten analysis passes or recoveries.
var sweepBudget = map[string]budget{
	"ingest":  {minOps: 1},
	"live":    {minOps: 1},
	"analyze": {minOps: 10, limit: 30},
	"restart": {minOps: 10, limit: 30},
}

// runTraced is the per-layer run. It measures the named workload
// untraced and then traced, for the tracing overhead and the runtime
// counters; runs every other workload once, traced; and runs the
// standalone layer passes. Every workload's outputs are checked; the
// result's attempted and failed count the named workload's.
func runTraced(e *env, name string) (*result, error) {
	epoch := time.Now()
	s, err := buildStream(e.seed, e.scale)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(s, e.perturb, true)
	if err != nil {
		return nil, err
	}
	a, err := buildArchive(filepath.Join(e.work, "archive"), e.seed, e.scale)
	if err != nil {
		return nil, err
	}
	defer a.close()
	if err := a.computeReference(e.seed, e.scale, e.perturb); err != nil {
		return nil, err
	}
	c, err := buildCrash(filepath.Join(e.work, "crash"), s)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := c.computeTwin(e.work, s, e.perturb); err != nil {
		return nil, err
	}
	runtime.GC()

	measure := func(w string, tl *spanLog, b budget) (*outcome, error) {
		switch w {
		case "ingest":
			return runIngest(e, s, o, b, tl)
		case "live":
			return runLive(e, s, o, b, tl)
		case "analyze":
			return runAnalyze(a, b, tl)
		default:
			return runRestart(e, s, c, b, tl)
		}
	}
	half := measureBudget(e, name)
	half.seconds /= 2
	half.minOps = min(half.minOps, 20)
	half.limit = e.seconds
	untraced, err := measure(name, nil, half)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	traced, err := measure(name, newSpanLog(name, epoch), half)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()

	seg := map[string]*outcome{name: traced}
	var sweepProblems []string
	for _, w := range workloadNames {
		if w == name {
			continue
		}
		if seg[w], err = measure(w, newSpanLog(w, epoch), sweepBudget[w]); err != nil {
			return nil, err
		}
		sweepProblems = append(sweepProblems, seg[w].problems...)
	}
	sa, err := standalonePasses(e, s, o, a, c)
	if err != nil {
		return nil, err
	}

	var logs []*spanLog
	for _, w := range workloadNames {
		logs = append(logs, seg[w].logs...)
	}
	if err := writeSpans(filepath.Join(e.traces, name+".jsonl"), logs...); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	ing, ana, rst, liv := seg["ingest"], seg["analyze"], seg["restart"], seg["live"]
	ingLog, anaLog, rstLog := ing.logs[0], ana.logs[0], rst.logs[0]
	ingRecs := float64(ing.records)
	ingestNs := sum(ingLog.durations("service.Service.Ingest"))
	appendNs := (ing.after.appendSeconds - ing.before.appendSeconds) * 1e9
	pruned, columns, matched := scanFractions(sa.scan)
	oRecs, oMatched, oEvicted := monitorCounts(o.stats)
	v := map[string]float64{
		"ipfix.decode_ns_per_rec":                sa.decodeNs,
		"ipfix.decode_alloc_b_per_rec":           sa.decodeAlloc,
		"ipfix.collector_queue_max":              liv.collector.queueMax,
		"ipfix.collector_shed":                   float64(liv.collector.shed),
		"ipfix.lost_records":                     float64(liv.collector.lost),
		"service.ingest_ns_per_rec":              ingestNs / ingRecs,
		"service.ingest_self_ns_per_rec":         (ingestNs - appendNs) / ingRecs,
		"service.checkpoint_ms":                  median(ingLog.durations("service.Service.Checkpoint")) / 1e6,
		"service.drain_ms":                       median(ingLog.durations("service.Service.Drain")) / 1e6,
		"service.checkpoint_bytes":               float64(c.checkpointBytes),
		"service.restore_ms":                     median(rstLog.durations("service.New")) / 1e6,
		"service.replay_ms":                      median(rstLog.durations("service.Service.ReplayFromStore")) / 1e6,
		"service.replay_records":                 float64(rst.replayed) / float64(len(rst.latency)),
		"service.replay_scanned_per_replayed":    float64(rst.scanned) / float64(rst.replayed),
		"flowstore.append_ns_per_rec":            appendNs / ingRecs,
		"flowstore.append_standalone_ns_per_rec": sa.appendNs,
		"flowstore.append_bytes_per_rec":         sa.appendBytes,
		"flowstore.open_ms":                      median(rstLog.durations("flowstore.Open")) / 1e6,
		"flowstore.scan_batches_ns_per_rec":      sa.scanNs,
		"flowstore.blocks_pruned_frac":           pruned,
		"flowstore.columns_decoded_frac":         columns,
		"flowstore.matched_frac":                 matched,
		"flowstore.scan_alloc_b_per_rec":         sa.scanAlloc,
		"flowstore.ordered_scan_ns_per_rec":      sa.orderedNs,
		"pipe.fanout_ns_per_rec":                 sa.fanoutNs,
		"pipe.shard_queue_max":                   ing.after.shardQueueMax,
		"pipe.stage_p99_us":                      stageP99Seconds(ing.before, ing.after) * 1e6,
		"classify.monitor_ns_per_rec":            sa.monitorNs,
		"classify.matched_frac":                  float64(oMatched) / float64(oRecs),
		"classify.evicted_bins":                  float64(oEvicted),
		"classify.alerts":                        float64(len(o.alerts)),
		"takedown.analyze_self_ns_per_rec":       (median(anaLog.durations("core.ReplayStudy.Analyze")) - sa.scanNs*float64(a.records)) / float64(a.records),
		"core.analyze_alloc_b_per_rec":           median(ana.allocs) / float64(a.records),
		"runtime.gc_cycles":                      float64(rt1.gcCycles - rt0.gcCycles),
		"runtime.gc_pause_ms":                    float64(rt1.pauseNs-rt0.pauseNs) / 1e6,
		"runtime.alloc_b_per_rec":                float64(rt1.allocBytes-rt0.allocBytes) / float64(traced.records),
		"bench.gen_late_p99_ms":                  quantile(liv.lateness, 0.99),
		"bench.trace_overhead_frac":              quantile(traced.latency, 0.5)/quantile(untraced.latency, 0.5) - 1,
	}

	r := &result{
		Workload: name, Traced: true,
		Inputs: map[string]any{
			"seed": e.seed, "scale": e.scale, "scenario_days": scenarioDays,
			"stream_records": s.records, "datagrams": len(s.datagrams),
			"archive_records": a.records, "crash_archive_records": c.archived,
			"offered_records_per_s": liveRate,
		},
		Attempted: untraced.attempted + traced.attempted,
		Failed:    untraced.failed + traced.failed,
		Problems:  append(append([]string(nil), untraced.problems...), traced.problems...),
		Metrics:   make(map[string]metric, len(perLayer)),
		Moves:     make(map[string]string, len(perLayer)),
		Spans:     summarize(logs...),
		Extra:     map[string]metric{"sweep_problems": {float64(len(sweepProblems)), "count"}},
	}
	r.Correct = len(r.Problems) == 0
	for _, m := range perLayer {
		r.Metrics[m.name] = metric{v[m.name], m.unit}
		r.Moves[m.name] = m.moves
	}
	for _, p := range sweepProblems {
		r.Problems = append(r.Problems, "sweep: "+p)
	}
	return r, nil
}

// standaloneResult holds per-record costs of single layers run alone.
type standaloneResult struct {
	decodeNs, decodeAlloc float64
	appendNs, appendBytes float64
	fanoutNs, monitorNs   float64
	scanNs, scanAlloc     float64
	scan                  scanStats
	orderedNs             float64
}

// standaloneReps is how many times each standalone pass runs; the
// median is reported.
const standaloneReps = 3

// repeatPass runs fn standaloneReps times and returns the median wall
// time in nanoseconds and the median bytes allocated.
func repeatPass(fn func() error) (ns, alloc float64, err error) {
	var times, allocs []float64
	for i := 0; i < standaloneReps; i++ {
		a0 := allocBytes()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		times = append(times, float64(time.Since(t0).Nanoseconds()))
		allocs = append(allocs, float64(allocBytes()-a0))
	}
	return median(times), median(allocs), nil
}

func standalonePasses(e *env, s *stream, o *oracle, a *archive, c *crash) (*standaloneResult, error) {
	var r standaloneResult
	recs := float64(s.records)

	ns, alloc, err := repeatPass(func() error {
		dec := newDecoder()
		for i, dg := range s.datagrams {
			if _, err := dec.decode(dg); err != nil {
				return fmt.Errorf("standalone decode of datagram %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.decodeNs, r.decodeAlloc = ns/recs, alloc/recs

	// Append into a fresh store; sealing on close is outside the timing.
	var stores []*store
	ns, _, err = repeatPass(func() error {
		st, err := openStore(filepath.Join(e.work, fmt.Sprintf("append-%d", len(stores))))
		if err != nil {
			return err
		}
		stores = append(stores, st)
		for _, b := range o.batches {
			if err := st.append(b); err != nil {
				return err
			}
		}
		return nil
	})
	for i, st := range stores {
		if cerr := st.close(); err == nil {
			err = cerr
		}
		os.RemoveAll(filepath.Join(e.work, fmt.Sprintf("append-%d", i)))
	}
	if err != nil {
		return nil, err
	}
	r.appendNs = ns / recs
	r.appendBytes = float64(stores[len(stores)-1].bytesWritten()) / recs

	ns, _, err = repeatPass(func() error { return fanOutPass(o.batches) })
	if err != nil {
		return nil, err
	}
	r.fanoutNs = ns / recs
	ns, _, err = repeatPass(func() error { serialMonitor(o.batches); return nil })
	if err != nil {
		return nil, err
	}
	r.monitorNs = ns / recs

	ns, alloc, err = repeatPass(func() error {
		var err error
		r.scan, err = a.replay.scanAnalyzeQuery()
		return err
	})
	if err != nil {
		return nil, err
	}
	r.scanNs, r.scanAlloc = ns/float64(a.records), alloc/float64(a.records)

	dir := filepath.Join(e.work, "ordered")
	defer os.RemoveAll(dir)
	if err := copyDir(c.dir, dir); err != nil {
		return nil, err
	}
	storeDir, _ := daemonDirs(dir)
	st, err := openStore(storeDir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var n uint64
	ns, _, err = repeatPass(func() error {
		var err error
		n, err = st.scanOrdered()
		return err
	})
	if err != nil {
		return nil, err
	}
	if n != c.archived {
		return nil, fmt.Errorf("ordered scan delivered %d records, archive holds %d", n, c.archived)
	}
	r.orderedNs = ns / float64(n)
	return &r, nil
}
