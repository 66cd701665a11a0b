package flowstore

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// decodeThenFilter is the row-path reference the pushdown tests compare
// against: decode every record, then apply the exact Query predicate.
func decodeThenFilter(t *testing.T, payload []byte, n int, q *Query) []flow.Record {
	t.Helper()
	recs, err := decodeBlock(nil, payload, n)
	if err != nil {
		t.Fatalf("row decode: %v", err)
	}
	var out []flow.Record
	for i := range recs {
		if q.matches(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

// columnarFilter runs the pushed-down predicate over a loaded block and
// materializes the survivors.
func columnarFilter(t *testing.T, payload []byte, n int, q *Query) []flow.Record {
	t.Helper()
	cb := getColumnBlock()
	defer cb.Release()
	if err := cb.load(payload, n); err != nil {
		t.Fatalf("columnar load: %v", err)
	}
	p := compilePredicate(q)
	if err := cb.applyQuery(&p); err != nil {
		t.Fatalf("apply query: %v", err)
	}
	if cb.selCount == 0 {
		return nil
	}
	if err := cb.decodeAll(); err != nil {
		t.Fatalf("decode all: %v", err)
	}
	return cb.materializeSelected(nil)
}

// randQuery builds a randomized Query, biased so every predicate shape
// (including netip corner cases) gets exercised.
func randQuery(rng *rand.Rand, recs []flow.Record) Query {
	var q Query
	pick := func() *flow.Record { return &recs[rng.Intn(len(recs))] }
	if rng.Intn(2) == 0 {
		q.From = pick().Start.Add(time.Duration(rng.Int63n(int64(2*time.Minute))) - time.Minute)
	}
	if rng.Intn(2) == 0 {
		q.To = pick().Start.Add(time.Duration(rng.Int63n(int64(2*time.Minute))) - time.Minute)
	}
	switch rng.Intn(5) {
	case 0: // drill into a destination that exists
		q.Dst = pick().Dst
	case 1: // random (usually absent) destination
		var b [4]byte
		rng.Read(b[:])
		q.Dst = netip.AddrFrom4(b)
	case 2: // 4-in-6 form of an existing destination: must NOT equal
		// the unmapped v4 address under netip semantics.
		d := pick().Dst
		if d.Is4() {
			q.Dst = netip.AddrFrom16(d.As16())
		}
	case 3: // zoned address matches nothing
		q.Dst = netip.MustParseAddr("fe80::1%eth0")
	}
	ports := func() []uint16 {
		n := 1 + rng.Intn(3)
		out := make([]uint16, n)
		for i := range out {
			if rng.Intn(2) == 0 {
				out[i] = pick().DstPort
			} else {
				out[i] = uint16(rng.Intn(1 << 16))
			}
		}
		return out
	}
	if rng.Intn(2) == 0 {
		q.DstPorts = ports()
	}
	if rng.Intn(2) == 0 {
		q.PortsEither = ports()
	}
	if rng.Intn(2) == 0 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				q.Protocols = append(q.Protocols, pick().Protocol)
			} else {
				q.Protocols = append(q.Protocols, uint8(rng.Intn(256)))
			}
		}
	}
	return q
}

// TestPushdownMatchesRowFilter is the satellite property test: for
// randomized blocks and randomized queries, the pushed-down selection
// must keep exactly the records the row path's decode-then-filter
// keeps, bit for bit and in order.
func TestPushdownMatchesRowFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(300)
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		payload := encodeBlock(recs)
		if trial%3 == 0 { // the v1 reader must push down identically
			payload = encodeBlockV1(recs)
		}
		q := randQuery(rng, recs)
		want := decodeThenFilter(t, payload, n, &q)
		got := columnarFilter(t, payload, n, &q)
		if len(got) != len(want) {
			t.Fatalf("trial %d: pushdown kept %d records, row filter %d (query %+v)",
				trial, len(got), len(want), q)
		}
		for i := range want {
			if !recordEqual(&got[i], &want[i]) {
				t.Fatalf("trial %d record %d diverges (query %+v)\ncolumnar: %+v\nrow:      %+v",
					trial, i, q, got[i], want[i])
			}
		}
	}
}

// TestAppendSelectedMatchesMaterialize: compacting survivors into a
// columnar slab and materializing that slab must equal materializing
// the selection directly — the two lazy paths agree.
func TestAppendSelectedMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		payload := encodeBlock(recs)
		q := randQuery(rng, recs)

		cb := getColumnBlock()
		if err := cb.load(payload, n); err != nil {
			t.Fatalf("load: %v", err)
		}
		p := compilePredicate(&q)
		if err := cb.applyQuery(&p); err != nil {
			t.Fatalf("apply: %v", err)
		}
		if err := cb.decodeAll(); err != nil {
			t.Fatalf("decode all: %v", err)
		}
		direct := cb.materializeSelected(nil)
		var cols flow.Columns
		cb.appendSelected(&cols)
		viaCols := cols.MaterializeAppend(nil)
		cb.Release()

		if len(direct) != len(viaCols) {
			t.Fatalf("trial %d: direct %d records, via columns %d", trial, len(direct), len(viaCols))
		}
		for i := range direct {
			if !recordEqual(&direct[i], &viaCols[i]) {
				t.Fatalf("trial %d record %d diverges\ndirect: %+v\ncols:   %+v",
					trial, i, direct[i], viaCols[i])
			}
		}
	}
}

// TestV1ArchiveCompat: blocks written by the previous row-oriented
// format must decode identically through the row decoder and the
// columnar reader — old archives stay readable.
func TestV1ArchiveCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		v1 := encodeBlockV1(recs)
		rowDecoded, err := decodeBlock(nil, v1, n)
		if err != nil {
			t.Fatalf("row decode of v1: %v", err)
		}
		got := columnarFilter(t, v1, n, &Query{})
		if len(got) != n || len(rowDecoded) != n {
			t.Fatalf("trial %d: v1 decode lengths row=%d col=%d want %d",
				trial, len(rowDecoded), len(got), n)
		}
		for i := range recs {
			if !recordEqual(&got[i], &recs[i]) || !recordEqual(&rowDecoded[i], &recs[i]) {
				t.Fatalf("trial %d record %d: v1 round-trip mismatch", trial, i)
			}
		}
	}
}

// TestScanStatsColumnsDecoded is the accounting golden: a pruned,
// predicated scan must report both the prune fraction and the share of
// columns the pushdown actually decoded, and the row-decode oracle must
// report a 1.0 decode fraction over the same archive.
func TestScanStatsColumnsDecoded(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	recs := genFlows(rng, testBase, 6, 12_000)
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 3, BlockRecords: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	// Victim drilldown for an address inside every block's dst index
	// range but present in no record: blocks scan, nothing matches, so
	// only the predicate's columns — flags, the two dst halves, and the
	// two start-time columns — ever decode.
	q := Query{
		From: testBase.Add(24 * time.Hour),
		To:   testBase.Add(48 * time.Hour),
		Dst:  netip.MustParseAddr("198.51.15.1"),
	}
	stats, err := s.ScanBatches(q, func(b *pipe.Batch) error { b.Release(); return nil })
	if err != nil {
		t.Fatalf("columnar scan: %v", err)
	}
	if stats.PruneFraction() <= 0 {
		t.Fatalf("time-bounded scan pruned nothing: %+v", stats)
	}
	if stats.BlocksScanned == 0 {
		t.Fatalf("drilldown scanned no blocks: %+v", stats)
	}
	// flags, dstHi, dstLo, startSec — whole-second From/To bounds elide
	// the start-nanosecond column (see compilePredicate).
	const predicateCols = 4
	blocks := uint64(stats.BlocksScanned)
	if stats.ColumnsTotal != blocks*nCols || stats.ColumnsDecoded != blocks*predicateCols {
		t.Fatalf("column accounting golden diverges: decoded %d / total %d over %d blocks, want %d / %d",
			stats.ColumnsDecoded, stats.ColumnsTotal, blocks,
			blocks*predicateCols, blocks*nCols)
	}
	frac := stats.ColumnsDecodedFraction()
	if want := float64(predicateCols) / float64(nCols); frac != want {
		t.Fatalf("columns decoded fraction = %v, want %v", frac, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Row-decode oracle over the same archive: identical multiset
	// accounting, full-decode fraction.
	_, oStats := rowScan(t, dir, q)
	if got := oStats.ColumnsDecodedFraction(); got != 1.0 {
		t.Fatalf("row decode fraction = %v, want 1.0", got)
	}
	if oStats.RecordsMatched != stats.RecordsMatched ||
		oStats.RecordsScanned != stats.RecordsScanned ||
		oStats.BlocksPruned != stats.BlocksPruned {
		t.Fatalf("oracle accounting diverges:\ncolumnar = %+v\nrow      = %+v", stats, oStats)
	}
}

// TestRowDecodeOracleEquivalence is the flowstore-level differential:
// the store's scans and the test-side row scanner (rowScan) must
// produce the identical record multiset from ScanBatches and the
// identical ordered stream from Scan.
func TestRowDecodeOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	recs := genFlows(rng, testBase, 4, 9000)
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 3, BlockRecords: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	queries := []Query{
		{},
		{Protocols: []uint8{17}, PortsEither: []uint16{123}},
		{From: testBase.Add(12 * time.Hour), To: testBase.Add(60 * time.Hour)},
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for qi, q := range queries {
		var ordered [2][]string     // Scan stream: columnar, row oracle
		var multi [2]map[string]int // ScanBatches multiset: columnar, row oracle
		_, err = st.Scan(q, func(r *flow.Record) error {
			ordered[0] = append(ordered[0], recordKey(r))
			return nil
		})
		if err != nil {
			t.Fatalf("query %d scan: %v", qi, err)
		}
		multi[0] = make(map[string]int)
		_, err = st.ScanBatches(q, func(b *pipe.Batch) error {
			defer b.Release()
			rs := b.Records()
			for i := range rs {
				multi[0][recordKey(&rs[i])]++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("query %d batches: %v", qi, err)
		}
		want, _ := rowScan(t, dir, q)
		multi[1] = make(map[string]int)
		for i := range want {
			ordered[1] = append(ordered[1], recordKey(&want[i]))
			multi[1][recordKey(&want[i])]++
		}
		if len(ordered[0]) != len(ordered[1]) {
			t.Fatalf("query %d: ordered stream lengths %d vs %d", qi, len(ordered[0]), len(ordered[1]))
		}
		for i := range ordered[0] {
			if ordered[0][i] != ordered[1][i] {
				t.Fatalf("query %d: ordered stream diverges at %d:\ncolumnar: %s\nrow:      %s",
					qi, i, ordered[0][i], ordered[1][i])
			}
		}
		if len(multi[0]) != len(multi[1]) {
			t.Fatalf("query %d: batch multisets differ: %d vs %d distinct", qi, len(multi[0]), len(multi[1]))
		}
		for k, n := range multi[0] {
			if multi[1][k] != n {
				t.Fatalf("query %d: batch multiset diverges at %s: columnar %d, row %d",
					qi, k, n, multi[1][k])
			}
		}
	}
}
