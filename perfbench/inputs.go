package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// recordsPerDatagram matches the demo exporter in cmd/collector.
const recordsPerDatagram = 50

// streamRecords fixes the stream's length: the window holds 300K to
// 650K records depending on the seed (313K was the least in 80 seeds),
// and a fixed-size prefix keeps the input size the same across seeds.
const streamRecords = 280_000

// stream is the daemon input: the first streamRecords records of the
// tier-2 window in exporter order (sorted by flow End, as exporters
// flush flows when they end), encoded into IPFIX datagrams.
type stream struct {
	datagrams [][]byte
	records   int
}

// exporterOrder generates the window and returns its first
// streamRecords records in exporter order.
func exporterOrder(seed uint64, scale float64) []record {
	recs := scenarioRecords(seed, scale)
	sort.SliceStable(recs, func(i, j int) bool { return recordEnd(&recs[i]).Before(recordEnd(&recs[j])) })
	return recs[:min(len(recs), streamRecords)]
}

func buildStream(seed uint64, scale float64) (*stream, error) {
	recs := exporterOrder(seed, scale)
	dgs, err := encodeDatagrams(recs, recordsPerDatagram)
	if err != nil {
		return nil, err
	}
	return &stream{datagrams: dgs, records: len(recs)}, nil
}

// recordsIn is the record count of datagram i.
func (s *stream) recordsIn(i int) uint64 {
	return uint64(min(recordsPerDatagram, s.records-i*recordsPerDatagram))
}

// recordsBetween is the record count of datagrams [from, to).
func (s *stream) recordsBetween(from, to int) uint64 {
	var n uint64
	for i := from; i < to; i++ {
		n += s.recordsIn(i)
	}
	return n
}

// oracle is what a correct daemon must produce from the stream: the
// alerts and monitor accounting of one serial monitor over the decoded
// datagrams. It is computed untimed, after set-up.
type oracle struct {
	alerts []alert
	stats  monitorStats
	// batches are the decoded datagrams, kept only for the traced
	// run's standalone layer passes.
	batches [][]record
	// index maps a decoded datagram's content to its position.
	index map[batchID][]int
}

func newOracle(s *stream, perturb, keepBatches bool) (*oracle, error) {
	dec := newDecoder()
	batches := make([][]record, len(s.datagrams))
	index := make(map[batchID][]int, len(s.datagrams))
	for i, dg := range s.datagrams {
		recs, err := dec.decode(dg)
		if err != nil {
			return nil, fmt.Errorf("oracle: decoding datagram %d: %w", i, err)
		}
		if uint64(len(recs)) != s.recordsIn(i) {
			return nil, fmt.Errorf("oracle: datagram %d decoded %d records, encoded %d", i, len(recs), s.recordsIn(i))
		}
		batches[i] = recs
		k := batchKey(recs)
		index[k] = append(index[k], i)
	}
	o := &oracle{index: index}
	o.alerts, o.stats = serialMonitor(batches)
	if keepBatches {
		o.batches = batches
	}
	if perturb {
		perturbStats(&o.stats)
	}
	return o, nil
}

// archive is the analyze input: the stream's records written as a
// study archive of the window, opened for replay. Writing the same
// fixed-size record set keeps the pass time from following the seed's
// traffic volume.
type archive struct {
	dir     string
	replay  *replay
	records uint64
	recs    []record // kept until the reference is computed
	// reference is the analysis over the same records in memory.
	reference *analysis
}

func buildArchive(dir string, seed uint64, scale float64) (*archive, error) {
	recs := exporterOrder(seed, scale)
	if err := writeArchive(dir, seed, scale, recs); err != nil {
		return nil, err
	}
	r, err := openReplay(dir)
	if err != nil {
		return nil, err
	}
	return &archive{dir: dir, replay: r, records: r.records(), recs: recs}, nil
}

func (a *archive) computeReference(seed uint64, scale float64, perturb bool) error {
	ref, err := referenceAnalysis(seed, scale, a.recs)
	a.recs = nil
	if err != nil {
		return fmt.Errorf("analyze reference: %w", err)
	}
	if perturb {
		perturbAnalysis(ref)
	}
	a.reference = ref
	return nil
}

func (a *archive) close() {
	a.replay.close()
	os.RemoveAll(a.dir)
}

// alertLog collects alerts the shard workers report concurrently.
type alertLog struct {
	mu     sync.Mutex
	alerts []alert
}

func (l *alertLog) add(a alert) {
	l.mu.Lock()
	l.alerts = append(l.alerts, a)
	l.mu.Unlock()
}

// snapshot returns the alerts so far in canonical order.
func (l *alertLog) snapshot() []alert {
	l.mu.Lock()
	out := append([]alert(nil), l.alerts...)
	l.mu.Unlock()
	sortAlerts(out)
	return out
}

func sortAlerts(as []alert) {
	sort.Slice(as, func(i, j int) bool { return alertLess(&as[i], &as[j]) })
}

// crash is the restart input: the state a daemon leaves when it is
// killed after checkpointing at 1/3 of the stream and sealing its
// archive at 2/3, plus the uninterrupted twin run to compare against.
type crash struct {
	dir    string // holds store/ and checkpoint/ exactly as the crash left them
	p1, p2 int    // datagram positions of the checkpoint and the crash
	// prefix are the alerts raised before the checkpoint returned; the
	// restarted daemon does not raise them again.
	prefix          []alert
	checkpointBytes int64
	archived        uint64 // records in the crashed archive

	twinAlerts []alert
	twinStats  monitorStats
}

func daemonDirs(dir string) (storeDir, checkpointDir string) {
	return filepath.Join(dir, "store"), filepath.Join(dir, "checkpoint")
}

// openDaemonAt opens a store and a daemon over it in dir.
func openDaemonAt(dir string, onAlert func(alert)) (*daemon, error) {
	storeDir, ckptDir := daemonDirs(dir)
	st, err := openStore(storeDir)
	if err != nil {
		return nil, err
	}
	d, err := newDaemon(st, ckptDir, onAlert)
	if err != nil {
		st.close()
		return nil, err
	}
	return d, nil
}

// stopDaemon drains the daemon and closes its store.
func stopDaemon(d *daemon) (monitorStats, error) {
	ms, err := d.drain()
	if cerr := d.st.close(); err == nil {
		err = cerr
	}
	return ms, err
}

// buildCrash feeds the stream up to the crash point and snapshots the
// daemon's directories there, as a SIGKILL would leave them.
func buildCrash(work string, s *stream) (*crash, error) {
	c := &crash{dir: filepath.Join(work, "crashed"), p1: len(s.datagrams) / 3, p2: 2 * len(s.datagrams) / 3}
	live := filepath.Join(work, "crash-live")
	var log alertLog
	d, err := openDaemonAt(live, log.add)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(live)
	dec := newDecoder()
	if _, failed := feedRange(d, dec, s, 0, c.p1, nil, nil); failed > 0 {
		stopDaemon(d)
		return nil, fmt.Errorf("crash set-up: %d records refused", failed)
	}
	if c.checkpointBytes, err = d.checkpoint(); err != nil {
		stopDaemon(d)
		return nil, fmt.Errorf("crash set-up: checkpoint: %w", err)
	}
	c.prefix = log.snapshot()
	if _, failed := feedRange(d, dec, s, c.p1, c.p2, nil, nil); failed > 0 {
		stopDaemon(d)
		return nil, fmt.Errorf("crash set-up: %d records refused", failed)
	}
	if err := d.st.seal(); err != nil {
		stopDaemon(d)
		return nil, fmt.Errorf("crash set-up: seal: %w", err)
	}
	c.archived = d.st.durableRecords()
	if err := copyDir(live, c.dir); err != nil {
		stopDaemon(d)
		return nil, err
	}
	// The snapshot is the crashed state; stopping the abandoned daemon
	// only reclaims its goroutines and touches nothing in the snapshot.
	if _, err := stopDaemon(d); err != nil {
		return nil, err
	}
	return c, nil
}

// computeTwin runs the uninterrupted daemon on the same checkpoint and
// seal schedule to the end of the stream.
func (c *crash) computeTwin(work string, s *stream, perturb bool) error {
	dir := filepath.Join(work, "twin")
	defer os.RemoveAll(dir)
	d, err := openDaemonAt(dir, nil)
	if err != nil {
		return err
	}
	dec := newDecoder()
	var failed uint64
	_, f := feedRange(d, dec, s, 0, c.p1, nil, nil)
	failed += f
	if _, err := d.checkpoint(); err != nil {
		stopDaemon(d)
		return fmt.Errorf("twin: checkpoint: %w", err)
	}
	_, f = feedRange(d, dec, s, c.p1, c.p2, nil, nil)
	failed += f
	if err := d.st.seal(); err != nil {
		stopDaemon(d)
		return fmt.Errorf("twin: seal: %w", err)
	}
	_, f = feedRange(d, dec, s, c.p2, len(s.datagrams), nil, nil)
	failed += f
	if c.twinStats, err = stopDaemon(d); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	if failed > 0 {
		return fmt.Errorf("twin: %d records refused", failed)
	}
	c.twinAlerts = d.alerts()
	sortAlerts(c.twinAlerts)
	if perturb {
		perturbStats(&c.twinStats)
	}
	return nil
}

func (c *crash) close() { os.RemoveAll(c.dir) }

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
