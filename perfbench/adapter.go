package main

// adapter.go is the only file of the benchmark that calls into
// booterscope. Every other file goes through the names declared here,
// so a change to a program signature is absorbed in this one file.
// The workloads use the entry points the daemon and the replay CLI use
// in production: service.New/Ingest/Checkpoint/ReplayFromStore/Drain,
// flowstore.Open/Append/Seal/Scan/ScanBatches, core.OpenReplay and
// ReplayStudy.Analyze, and the ipfix Encoder, Decoder and Collector.
// The oracles use a serial classify.Monitor and takedown.Analyze over
// records in memory; the traced run's standalone passes also drive a
// bare sharded monitor's fan-out.

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/core"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/ipfix"
	"booterscope/internal/packet"
	"booterscope/internal/pipe"
	"booterscope/internal/service"
	"booterscope/internal/takedown"
	"booterscope/internal/telemetry"
	"booterscope/internal/trafficgen"
)

type (
	record       = flow.Record
	alert        = classify.Alert
	monitorStats = classify.MonitorStats
	analysis     = takedown.Analysis
	scanStats    = flowstore.ScanStats
	storeLedger  = flowstore.Stats
)

// scenarioDays and scenarioLead place the tier-2 window every
// workload's inputs come from: 30 days starting 10 days before the
// takedown, so that even the densest seeds' first streamRecords records
// reach past it and the before/after analysis has both sides.
const (
	scenarioDays = 30
	scenarioLead = 10
)

// exporterDomain is the observation domain the demo exporter uses.
const exporterDomain = 64512

func scenarioConfig(seed uint64, scale float64) trafficgen.Config {
	return trafficgen.Config{
		Start:    core.TakedownDate.AddDate(0, 0, -scenarioLead),
		Days:     scenarioDays,
		Takedown: core.TakedownDate,
		Seed:     seed,
		Scale:    scale,
	}
}

// scenarioRecords generates the tier-2 window in generation order.
func scenarioRecords(seed uint64, scale float64) []record {
	sc := trafficgen.NewScenario(scenarioConfig(seed, scale))
	var recs []record
	for d := 0; d < scenarioDays; d++ {
		recs = append(recs, sc.Day(trafficgen.KindTier2, d)...)
	}
	return recs
}

func recordEnd(r *record) time.Time { return r.End }

// encodeDatagrams packs recs into IPFIX messages of per records each,
// every message carrying the template as the demo exporter's do.
func encodeDatagrams(recs []record, per int) ([][]byte, error) {
	enc := &ipfix.Encoder{DomainID: exporterDomain, TemplateRefresh: 1}
	var out [][]byte
	for i := 0; i < len(recs); i += per {
		end := min(i+per, len(recs))
		b, err := enc.Encode(recs[i:end], recs[end-1].End)
		if err != nil {
			return nil, fmt.Errorf("encoding records %d..%d: %w", i, end, err)
		}
		out = append(out, b)
	}
	return out, nil
}

type decoder struct{ d *ipfix.Decoder }

func newDecoder() decoder { return decoder{ipfix.NewDecoder()} }

func (d decoder) decode(b []byte) ([]record, error) { return d.d.Decode(b) }

// batchID identifies a decoded datagram by content, so the live
// workload can match what the collector hands over to what was sent.
type batchID struct {
	n          int
	start, end int64
	src, dst   netip.Addr
	sp, dp     uint16
	bytes      uint64
	lastBytes  uint64
}

func batchKey(recs []record) batchID {
	f, l := &recs[0], &recs[len(recs)-1]
	return batchID{
		n: len(recs), start: f.Start.UnixNano(), end: f.End.UnixNano(),
		src: f.Src, dst: f.Dst, sp: f.SrcPort, dp: f.DstPort,
		bytes: f.Bytes, lastBytes: l.Bytes,
	}
}

// store is one flow archive opened with the daemon's shipped (durable)
// options.
type store struct{ st *flowstore.Store }

func openStore(dir string) (*store, error) {
	st, err := flowstore.Open(dir, flowstore.Options{})
	if err != nil {
		return nil, err
	}
	return &store{st}, nil
}

func (s *store) append(recs []record) error { return s.st.Append(recs) }
func (s *store) seal() error                { return s.st.Seal() }
func (s *store) close() error               { return s.st.Close() }
func (s *store) ledger() storeLedger        { return s.st.Stats() }

// scanOrdered runs the ordered k-way Scan over every record, the read
// ReplayFromStore performs, and counts what it delivers.
func (s *store) scanOrdered() (uint64, error) {
	var n uint64
	_, err := s.st.Scan(flowstore.Query{}, func(*record) error { n++; return nil })
	return n, err
}

// durableRecords counts the records in fully written blocks.
func (s *store) durableRecords() uint64 { return s.st.Stats().RecordsDurable }

// bytesWritten counts the segment bytes written, framing included.
func (s *store) bytesWritten() uint64 { return s.st.Stats().BytesWritten }

// ledgerOK checks the archive's accounting after a drain: Appended ==
// Durable+Buffered+Dropped, nothing dropped, every record appended.
func ledgerOK(l storeLedger, records uint64) bool {
	return l.RecordsAppended == l.RecordsDurable+l.RecordsBuffered+l.RecordsDropped &&
		l.RecordsDropped == 0 && l.RecordsAppended == records
}

// monitorCounts reads the monitor counters the checks compare.
func monitorCounts(m monitorStats) (records, matched, evictedBins uint64) {
	return m.Records, m.Matched, m.EvictedBins
}

// perturbStats changes one counter so a comparison must fail.
func perturbStats(m *monitorStats) { m.Matched++ }

// daemon is the detection service over a borrowed store, with
// Parallelism equal to the host's CPU count.
type daemon struct {
	svc *service.Service
	st  *store
}

func newDaemon(st *store, checkpointDir string, onAlert func(alert)) (*daemon, error) {
	svc, err := service.New(service.Options{
		Parallelism:   runtime.NumCPU(),
		CheckpointDir: checkpointDir,
		Store:         st.st,
		OnAlert:       onAlert,
	})
	if err != nil {
		return nil, err
	}
	return &daemon{svc, st}, nil
}

func (d *daemon) ingest(recs []record) error { return d.svc.Ingest(recs) }
func (d *daemon) checkpoint() (int64, error) { return d.svc.Checkpoint() }
func (d *daemon) replay() (uint64, error)    { return d.svc.ReplayFromStore() }
func (d *daemon) alerts() []alert            { return d.svc.Alerts() }
func (d *daemon) drain() (monitorStats, error) {
	rep, err := d.svc.Drain()
	if rep == nil {
		return monitorStats{}, err
	}
	return rep.Monitor, err
}

// lostRecords counts records the daemon accepted but did not classify
// or archive in full: refused while draining, sampled out or shed from
// the archive by the overload ladder.
func (d *daemon) lostRecords() uint64 {
	s := d.svc.Stats()
	return s.RefusedRecords + s.SampledOutRecords + s.ArchiveShedRecords
}

// collector is a loopback IPFIX collector with its own registry.
type collector struct {
	c   *ipfix.Collector
	reg *telemetry.Registry
}

func newCollector() (*collector, error) {
	c, err := ipfix.NewCollector("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	c.RegisterTelemetry(reg)
	return &collector{c, reg}, nil
}

func (c *collector) addr() string                    { return c.c.Addr().String() }
func (c *collector) run(handle func([]record)) error { return c.c.Run(handle) }
func (c *collector) close() error                    { return c.c.Close() }

// collectorHealth is what the live workload reads after a pass.
type collectorHealth struct {
	shed, lost, decodeErrors uint64
	queueMax                 float64
}

func (c *collector) health() collectorHealth {
	h := c.c.Health()
	return collectorHealth{
		shed:         h.Shed,
		lost:         h.LostRecords,
		decodeErrors: h.DecodeErrors,
		queueMax:     c.reg.Snapshot().Gauges["ipfix_collector_queue_depth_high_watermark"],
	}
}

// writeArchive writes recs as the tier-2 store of a study archive
// under dir, with the daemon's durable options and the manifest
// metadata core.OpenReplay rebuilds the analysis window from (the keys
// TakedownStudy.WriteArchive writes).
func writeArchive(dir string, seed uint64, scale float64, recs []record) error {
	cfg := scenarioConfig(seed, scale)
	slug := core.KindSlug(trafficgen.KindTier2)
	st, err := flowstore.Open(filepath.Join(dir, slug), flowstore.Options{Meta: map[string]string{
		"study":    "takedown",
		"vantage":  slug,
		"seed":     strconv.FormatUint(seed, 10),
		"scale":    strconv.FormatFloat(scale, 'g', -1, 64),
		"days":     strconv.Itoa(cfg.Days),
		"start":    cfg.Start.UTC().Format(time.RFC3339),
		"takedown": cfg.Takedown.UTC().Format(time.RFC3339),
	}})
	if err != nil {
		return err
	}
	for i := 0; i < len(recs); i += flowstore.DefaultBlockRecords {
		if err := st.Append(recs[i:min(i+flowstore.DefaultBlockRecords, len(recs))]); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// referenceAnalysis is the analyze oracle: the analysis
// ReplayStudy.Analyze runs, over the same records from memory instead
// of from the archive (the equality TestReplayMatchesLive pins).
func referenceAnalysis(seed uint64, scale float64, recs []record) (*analysis, error) {
	src := func(emit func(*pipe.Batch) error) error {
		for i := 0; i < len(recs); i += pipe.DefaultBatchSize {
			chunk := recs[i:min(i+pipe.DefaultBatchSize, len(recs))]
			if err := emit(pipe.Wrap(append([]record(nil), chunk...))); err != nil {
				return err
			}
		}
		return nil
	}
	return takedown.Analyze(src, takedown.WindowOf(scenarioConfig(seed, scale)), trafficgen.KindTier2, runtime.NumCPU())
}

// perturbAnalysis changes one figure so a comparison must fail.
func perturbAnalysis(a *analysis) { a.Figure5.Metrics.Label += " (perturbed)" }

type replay struct{ r *core.ReplayStudy }

func openReplay(dir string) (*replay, error) {
	r, err := core.OpenReplay(dir)
	if err != nil {
		return nil, err
	}
	r.Parallelism = runtime.NumCPU()
	return &replay{r}, nil
}

func (r *replay) analyze() (*analysis, error) { return r.r.Analyze(trafficgen.KindTier2) }
func (r *replay) close() error                { return r.r.Close() }

// scanFractions are the pruning, lazy-decode and match shares of one
// scan.
func scanFractions(s scanStats) (blocksPruned, columnsDecoded, matched float64) {
	if s.RecordsScanned > 0 {
		matched = float64(s.RecordsMatched) / float64(s.RecordsScanned)
	}
	return s.PruneFraction(), s.ColumnsDecodedFraction(), matched
}

// records counts the archive's sealed records.
func (r *replay) records() uint64 {
	var n uint64
	for _, e := range r.r.Store(trafficgen.KindTier2).Segments() {
		n += e.Records
	}
	return n
}

// scanAnalyzeQuery runs ScanBatches alone with the query and
// projection ReplayStudy.Analyze issues, releasing each batch at once.
// The query mirrors the one in internal/core/replay.go.
func (r *replay) scanAnalyzeQuery() (scanStats, error) {
	ports := make([]uint16, 0, len(takedown.ReflectorVectors))
	for _, v := range takedown.ReflectorVectors {
		ports = append(ports, v.Port())
	}
	q := flowstore.Query{
		Protocols:   []uint8{packet.IPProtoUDP},
		PortsEither: ports,
		Project: flowstore.ColSrcAddr | flowstore.ColDstAddr |
			flowstore.ColSrcPort | flowstore.ColDstPort | flowstore.ColProto |
			flowstore.ColCounters | flowstore.ColStartSec,
	}
	return r.r.Store(trafficgen.KindTier2).ScanBatches(q, func(b *pipe.Batch) error {
		b.Release()
		return nil
	})
}

// serialMonitor is the ingest oracle: one serial classify.Monitor over
// the decoded stream, with the thresholds the daemon defaults to.
func serialMonitor(batches [][]record) ([]alert, monitorStats) {
	m := classify.NewMonitor(classify.Config{})
	var alerts []alert
	for _, b := range batches {
		for i := range b {
			if a := m.Add(&b[i]); a != nil {
				alerts = append(alerts, *a)
			}
		}
	}
	return alerts, m.Stats()
}

// fanOutPass drives a fresh sharded monitor through its fan-out, with
// no archive and no service around it.
func fanOutPass(batches [][]record) error {
	f := classify.NewShardedMonitor(classify.Config{}, runtime.NumCPU()).FanOut()
	for _, b := range batches {
		if err := f.Process(&pipe.Batch{Recs: b}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// alertLess orders alerts canonically for multiset comparison (shard
// workers report them concurrently).
func alertLess(a, b *alert) bool {
	if !a.Minute.Equal(b.Minute) {
		return a.Minute.Before(b.Minute)
	}
	if c := a.Victim.Compare(b.Victim); c != 0 {
		return c < 0
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Gbps != b.Gbps {
		return a.Gbps < b.Gbps
	}
	return a.Sources < b.Sources
}

// layerCounters are the process-wide program counters the traced run
// reads, as exposed through RegisterTelemetry.
type layerCounters struct {
	appendSeconds float64
	scanRecords   uint64
	shardQueueMax float64
	stage         telemetry.HistogramSnapshot
}

var processRegistry = func() *telemetry.Registry {
	r := telemetry.NewRegistry()
	pipe.RegisterTelemetry(r)
	flowstore.RegisterTelemetry(r)
	return r
}()

func readLayerCounters() layerCounters {
	s := processRegistry.Snapshot()
	return layerCounters{
		appendSeconds: s.Histograms["flowstore_ingest_batch_seconds"].Sum,
		scanRecords:   s.Counters["flowstore_scan_records_total"],
		shardQueueMax: s.Gauges["pipe_shard_queue_depth_max"],
		stage:         s.Histograms["pipe_stage_batch_latency_seconds"],
	}
}

// stageP99Seconds is the p99 of the pipe stage latency observed
// between two counter readings.
func stageP99Seconds(before, after layerCounters) float64 {
	d := after.stage
	d.Buckets = append([]telemetry.Bucket(nil), d.Buckets...)
	d.Count = 0
	for i := range d.Buckets {
		if i < len(before.stage.Buckets) {
			d.Buckets[i].Count -= before.stage.Buckets[i].Count
		}
		d.Count += d.Buckets[i].Count
	}
	return d.Quantile(0.99)
}
