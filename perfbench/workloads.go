package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"
)

// liveRate is the live workload's offered load in records per second,
// about a tenth of the closed-loop ingest capacity on a 2-vCPU host.
// At 150K rec/s and above that host's kernel socket buffer overflowed
// during the archive's partition-rollover stalls (about 10 ms once per
// simulated day), losing datagrams; at this rate a stall queues about
// ten datagrams and none is lost.
const liveRate = 50_000

// checkpointsPerPass spaces the ingest pass's checkpoints at every
// 1/checkpointsPerPass of the stream.
const checkpointsPerPass = 8

// budget decides how many operations a measurement runs: at least
// seconds long and minOps operations, but never past limit once one
// operation has run.
type budget struct {
	seconds float64
	minOps  int
	limit   float64
}

func (b budget) done(start time.Time, ops int) bool {
	el := time.Since(start).Seconds()
	return ops >= 1 && (el >= b.limit || ops >= b.minOps && el >= b.seconds)
}

// outcome is what one measurement of a workload observed.
type outcome struct {
	latency   []float64 // per operation, ms
	rates     []float64 // per pass, records/s (ingest, live)
	heapPeaks []float64 // per pass or operation, bytes
	allocs    []float64 // per operation, bytes (analyze)
	lateness  []float64 // per datagram, ms (live sender)
	records   uint64    // records the timed operations processed
	attempted uint64
	failed    uint64
	problems  []string
	// layer counters around the measurement and the health of the
	// live collectors, for the traced run.
	before, after layerCounters
	collector     collectorHealth
	// replayed and scanned count the records the timed recoveries
	// replayed and the records their scans decoded.
	replayed, scanned uint64
	logs              []*spanLog
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// feedRange decodes and ingests datagrams [from, to) as one operation
// each, appending each operation's latency to lat when it is non-nil.
// It returns the records offered and the records refused.
func feedRange(d *daemon, dec decoder, s *stream, from, to int, lat *[]float64, tl *spanLog) (offered, refused uint64) {
	for i := from; i < to; i++ {
		op := tl.newOp()
		root := tl.begin("datagram", op, -1)
		t0 := time.Now()
		sp := tl.begin("ipfix.Decoder.Decode", op, root)
		recs, err := dec.decode(s.datagrams[i])
		tl.end(sp)
		if err == nil {
			sp = tl.begin("service.Service.Ingest", op, root)
			err = d.ingest(recs)
			tl.end(sp)
		}
		if lat != nil {
			*lat = append(*lat, ms(time.Since(t0)))
		}
		tl.end(root)
		n := s.recordsIn(i)
		offered += n
		if err != nil {
			refused += n
		}
	}
	return offered, refused
}

// checkDaemon compares a drained daemon with the oracle and the
// archive ledger, and reports what differs.
func checkDaemon(d *daemon, got monitorStats, o *oracle, records uint64) []string {
	var bad []string
	if alerts := d.alerts(); !reflect.DeepEqual(alerts, o.alerts) {
		bad = append(bad, fmt.Sprintf("%d alerts, oracle %d (or different)", len(alerts), len(o.alerts)))
	}
	if got != o.stats {
		bad = append(bad, fmt.Sprintf("monitor stats %+v, oracle %+v", got, o.stats))
	}
	if l := d.st.ledger(); !ledgerOK(l, records) {
		bad = append(bad, fmt.Sprintf("archive ledger %+v for %d records", l, records))
	}
	if n := d.lostRecords(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d records refused, sampled out or shed", n))
	}
	return bad
}

// runIngest is the closed-loop ingest workload: every pass feeds the
// whole stream through Decode and Ingest into a fresh daemon with a
// fresh archive, checkpointing every 1/8 of the stream, then drains.
func runIngest(e *env, s *stream, o *oracle, b budget, tl *spanLog) (*outcome, error) {
	out := &outcome{before: readLayerCounters()}
	start := time.Now()
	for pass := 0; !b.done(start, pass); pass++ {
		if err := ingestPass(e, s, o, pass, out, tl); err != nil {
			return nil, err
		}
	}
	out.after = readLayerCounters()
	if tl != nil {
		out.logs = append(out.logs, tl)
	}
	return out, nil
}

func ingestPass(e *env, s *stream, o *oracle, pass int, out *outcome, tl *spanLog) error {
	dir := filepath.Join(e.work, fmt.Sprintf("ingest-%d", pass))
	defer os.RemoveAll(dir)
	d, err := openDaemonAt(dir, nil)
	if err != nil {
		return err
	}
	dec := newDecoder()
	n := len(s.datagrams)
	every := max(n/checkpointsPerPass, 1)
	var offered, refused uint64
	var problems []string
	heap := startHeapSampler()
	t0 := time.Now()
	for from := 0; from < n; from += every {
		to := min(from+every, n)
		off, ref := feedRange(d, dec, s, from, to, &out.latency, tl)
		offered += off
		refused += ref
		if to < n {
			sp := tl.begin("service.Service.Checkpoint", tl.newOp(), -1)
			_, err := d.checkpoint()
			tl.end(sp)
			if err != nil {
				problems = append(problems, fmt.Sprintf("checkpoint: %v", err))
			}
		}
	}
	sp := tl.begin("service.Service.Drain", tl.newOp(), -1)
	got, err := d.drain()
	tl.end(sp)
	elapsed := time.Since(t0)
	out.heapPeaks = append(out.heapPeaks, heap.finish())
	if err != nil {
		problems = append(problems, fmt.Sprintf("drain: %v", err))
	}
	problems = append(problems, checkDaemon(d, got, o, offered)...)
	if err := d.st.close(); err != nil {
		return fmt.Errorf("ingest pass %d: closing store: %w", pass, err)
	}
	out.rates = append(out.rates, float64(offered)/elapsed.Seconds())
	out.records += offered
	out.attempted += offered
	for _, p := range problems {
		out.fail("ingest pass %d: %s", pass, p)
	}
	if len(problems) > 0 {
		out.failed += offered
	} else {
		out.failed += refused
	}
	return nil
}

// runLive is the open-loop live workload: every pass paces the stream
// at liveRate into a fresh loopback collector whose handler ingests
// into a fresh daemon.
func runLive(e *env, s *stream, o *oracle, b budget, tl *spanLog) (*outcome, error) {
	out := &outcome{before: readLayerCounters()}
	var send *spanLog
	if tl != nil {
		send = newSpanLog("live-sender", tl.epoch)
	}
	start := time.Now()
	for pass := 0; !b.done(start, pass); pass++ {
		if err := livePass(e, s, o, pass, out, tl, send); err != nil {
			return nil, err
		}
	}
	out.after = readLayerCounters()
	if tl != nil {
		out.logs = append(out.logs, tl, send)
	}
	return out, nil
}

func livePass(e *env, s *stream, o *oracle, pass int, out *outcome, tl, send *spanLog) error {
	dir := filepath.Join(e.work, fmt.Sprintf("live-%d", pass))
	defer os.RemoveAll(dir)
	d, err := openDaemonAt(dir, nil)
	if err != nil {
		return err
	}
	col, err := newCollector()
	if err != nil {
		stopDaemon(d)
		return err
	}
	n := len(s.datagrams)
	due := make([]time.Duration, n)
	var cum uint64
	for i := range due {
		due[i] = time.Duration(float64(cum) / liveRate * 1e9)
		cum += s.recordsIn(i)
	}

	// The handler runs on the collector's single worker goroutine; it
	// maps each decoded batch back to its datagram by content.
	handledAt := make([]time.Duration, n)
	taken := make(map[batchID]int)
	var handled atomic.Int64
	var unknown, refused uint64
	var t0 time.Time
	started := make(chan struct{})
	runErr := make(chan error, 1)
	go func() {
		runErr <- col.run(func(recs []record) {
			<-started
			k := batchKey(recs)
			idx := o.index[k]
			j := taken[k]
			op := int64(-1)
			if j < len(idx) {
				op = int64(idx[j])
			}
			sp := tl.begin("service.Service.Ingest", op, -1)
			err := d.ingest(recs)
			tl.end(sp)
			at := time.Since(t0)
			if j >= len(idx) {
				unknown++
				return
			}
			taken[k] = j + 1
			if err != nil {
				refused += uint64(len(recs))
			}
			handledAt[idx[j]] = at
			handled.Add(1)
		})
	}()
	conn, err := net.Dial("udp", col.addr())
	if err != nil {
		col.close()
		<-runErr
		stopDaemon(d)
		return err
	}
	heap := startHeapSampler()
	t0 = time.Now()
	close(started)
	for i := 0; i < n; {
		now := time.Since(t0)
		for ; i < n && due[i] <= now; i++ {
			sp := send.begin("send", int64(i), -1)
			_, werr := conn.Write(s.datagrams[i])
			send.end(sp)
			if werr != nil {
				out.fail("live pass %d: sending datagram %d: %v", pass, i, werr)
			}
			out.lateness = append(out.lateness, ms(now-due[i]))
		}
		if i < n {
			time.Sleep(due[i] - time.Since(t0))
		}
	}
	conn.Close()
	waitHandled(&handled, int64(n))
	col.close()
	if err := <-runErr; err != nil {
		out.fail("live pass %d: collector: %v", pass, err)
	}
	out.heapPeaks = append(out.heapPeaks, heap.finish())

	health := col.health()
	out.collector.shed += health.shed
	out.collector.lost += health.lost
	out.collector.decodeErrors += health.decodeErrors
	out.collector.queueMax = max(out.collector.queueMax, health.queueMax)
	got, err := d.drain()
	var problems []string
	if err != nil {
		problems = append(problems, fmt.Sprintf("drain: %v", err))
	}
	var delivered, missing uint64
	var last time.Duration
	for i, at := range handledAt {
		if at == 0 {
			missing += s.recordsIn(i)
			continue
		}
		delivered += s.recordsIn(i)
		last = max(last, at)
		out.latency = append(out.latency, ms(at-due[i]))
	}
	if missing > 0 || unknown > 0 || health.shed > 0 || health.lost > 0 || health.decodeErrors > 0 {
		problems = append(problems, fmt.Sprintf("%d records never handled, %d unmatched batches, collector %+v", missing, unknown, health))
	}
	if missing == 0 {
		problems = append(problems, checkDaemon(d, got, o, delivered)...)
	}
	if err := d.st.close(); err != nil {
		return fmt.Errorf("live pass %d: closing store: %w", pass, err)
	}
	offered := uint64(s.records)
	out.rates = append(out.rates, float64(delivered)/last.Seconds())
	out.records += delivered
	out.attempted += offered
	for _, p := range problems {
		out.fail("live pass %d: %s", pass, p)
	}
	switch {
	case missing > 0:
		out.failed += missing + refused
	case len(problems) > 0:
		out.failed += offered
	default:
		out.failed += refused
	}
	return nil
}

// waitHandled waits until the collector has handed over n datagrams,
// or until no datagram arrived for quietFor (the rest are lost).
func waitHandled(handled *atomic.Int64, n int64) {
	const quietFor = 500 * time.Millisecond
	last, since := handled.Load(), time.Now()
	for last < n && time.Since(since) < quietFor {
		time.Sleep(time.Millisecond)
		if cur := handled.Load(); cur != last {
			last, since = cur, time.Now()
		}
	}
}

// runAnalyze is the closed-loop analyze workload: repeated analysis
// passes over the archive, each compared with the reference.
func runAnalyze(a *archive, b budget, tl *spanLog) (*outcome, error) {
	out := &outcome{before: readLayerCounters()}
	start := time.Now()
	for op := 0; !b.done(start, op); op++ {
		heap := startHeapSampler()
		a0 := allocBytes()
		sp := tl.begin("core.ReplayStudy.Analyze", tl.newOp(), -1)
		t0 := time.Now()
		res, err := a.replay.analyze()
		el := time.Since(t0)
		tl.end(sp)
		out.allocs = append(out.allocs, float64(allocBytes()-a0))
		out.heapPeaks = append(out.heapPeaks, heap.finish())
		out.latency = append(out.latency, ms(el))
		out.records += a.records
		out.attempted++
		switch {
		case err != nil:
			out.failed++
			out.fail("analyze pass %d: %v", op, err)
		case !reflect.DeepEqual(res, a.reference):
			out.failed++
			out.fail("analyze pass %d: result differs from the reference analysis", op)
		}
	}
	out.after = readLayerCounters()
	if tl != nil {
		out.logs = append(out.logs, tl)
	}
	return out, nil
}

// restartVerdict is how far one restarted run ends from the
// uninterrupted twin: alerts in one run but not the other, plus the
// records and matched records counted more or less than once.
type restartVerdict struct {
	checked, diverged uint64
	detail            string
}

// runRestart is the repeated crash-recovery workload. Every operation
// copies the crashed state, then times flowstore.Open, service.New and
// ReplayFromStore. A first, untimed recovery is run to the end of the
// stream and compared with the twin; every timed recovery is drained
// and must publish the same checkpoint as a second untimed one, so it
// inherits the first one's verdict.
func runRestart(e *env, s *stream, c *crash, b budget, tl *spanLog) (*outcome, error) {
	out := &outcome{before: readLayerCounters()}
	verdict, err := restartFull(e, s, c)
	if err != nil {
		return nil, err
	}
	want, err := restartSignature(e, c, -1, nil, nil)
	if err != nil {
		return nil, err
	}
	if verdict.diverged > 0 {
		out.fail("restart: %s", verdict.detail)
	}
	start := time.Now()
	for op := 0; !b.done(start, op); op++ {
		got, err := restartSignature(e, c, op, out, tl)
		if err != nil {
			return nil, err
		}
		out.attempted += verdict.checked
		if string(got) == string(want) {
			out.failed += verdict.diverged
		} else {
			out.failed += verdict.checked
			out.fail("restart op %d: recovered state differs from the verified recovery", op)
		}
	}
	out.after = readLayerCounters()
	if tl != nil {
		out.logs = append(out.logs, tl)
	}
	return out, nil
}

// recoverAt copies the crashed state into dir and recovers a daemon
// from it: Open, New, ReplayFromStore. With out set, the three calls
// are timed as one operation.
func recoverAt(c *crash, dir string, out *outcome, tl *spanLog) (*daemon, error) {
	if err := copyDir(c.dir, dir); err != nil {
		return nil, err
	}
	storeDir, ckptDir := daemonDirs(dir)
	scanned := readLayerCounters().scanRecords
	heap := startHeapSampler()
	op := tl.newOp()
	root := tl.begin("restart", op, -1)
	t0 := time.Now()
	sp := tl.begin("flowstore.Open", op, root)
	st, err := openStore(storeDir)
	tl.end(sp)
	if err != nil {
		heap.finish()
		return nil, err
	}
	sp = tl.begin("service.New", op, root)
	d, err := newDaemon(st, ckptDir, nil)
	tl.end(sp)
	if err != nil {
		heap.finish()
		st.close()
		return nil, err
	}
	sp = tl.begin("service.Service.ReplayFromStore", op, root)
	n, err := d.replay()
	tl.end(sp)
	el := time.Since(t0)
	tl.end(root)
	peak := heap.finish()
	if err != nil {
		stopDaemon(d)
		return nil, fmt.Errorf("replay: %w", err)
	}
	if out != nil {
		out.latency = append(out.latency, ms(el))
		out.heapPeaks = append(out.heapPeaks, peak)
		out.records += c.archived
		out.replayed += n
		out.scanned += readLayerCounters().scanRecords - scanned
	}
	return d, nil
}

// restartSignature recovers, drains, and returns the checkpoint the
// drain publishes: the complete monitor state and pipeline position.
func restartSignature(e *env, c *crash, op int, out *outcome, tl *spanLog) ([]byte, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("restart-%d", op))
	defer os.RemoveAll(dir)
	d, err := recoverAt(c, dir, out, tl)
	if err != nil {
		return nil, fmt.Errorf("restart op %d: %w", op, err)
	}
	if _, err := stopDaemon(d); err != nil {
		return nil, fmt.Errorf("restart op %d: %w", op, err)
	}
	_, ckptDir := daemonDirs(dir)
	return readCheckpointFile(ckptDir)
}

// restartFull recovers, feeds the rest of the stream, drains, and
// compares the whole run with the uninterrupted twin.
func restartFull(e *env, s *stream, c *crash) (restartVerdict, error) {
	dir := filepath.Join(e.work, "restart-full")
	defer os.RemoveAll(dir)
	d, err := recoverAt(c, dir, nil, nil)
	if err != nil {
		return restartVerdict{}, fmt.Errorf("restart check: %w", err)
	}
	_, refused := feedRange(d, newDecoder(), s, c.p2, len(s.datagrams), nil, nil)
	got, err := stopDaemon(d)
	if err != nil {
		return restartVerdict{}, fmt.Errorf("restart check: %w", err)
	}
	alerts := append(append([]alert(nil), c.prefix...), d.alerts()...)
	sortAlerts(alerts)
	alertDiff := multisetDiff(alerts, c.twinAlerts)
	recs, matched, evicted := monitorCounts(got)
	twinRecs, twinMatched, twinEvicted := monitorCounts(c.twinStats)
	return restartVerdict{
		checked:  twinRecs + uint64(len(c.twinAlerts)),
		diverged: alertDiff + absDiff(recs, twinRecs) + absDiff(matched, twinMatched) + refused,
		detail: fmt.Sprintf("restarted run differs from the uninterrupted one: %d alerts vs %d (%d not in both); records %d vs %d, matched %d vs %d, evicted bins %d vs %d",
			len(alerts), len(c.twinAlerts), alertDiff, recs, twinRecs, matched, twinMatched, evicted, twinEvicted),
	}, nil
}

// multisetDiff counts the alerts of two canonically sorted lists that
// are not matched by an equal alert in the other.
func multisetDiff(a, b []alert) uint64 {
	var diff uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case reflect.DeepEqual(a[i], b[j]):
			i++
			j++
		case alertLess(&a[i], &b[j]):
			diff++
			i++
		default:
			diff++
			j++
		}
	}
	return diff + uint64(len(a)-i+len(b)-j)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func readCheckpointFile(dir string) ([]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var all []byte
	for _, en := range entries {
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			return nil, err
		}
		all = append(all, en.Name()...)
		all = append(all, b...)
	}
	return all, nil
}
