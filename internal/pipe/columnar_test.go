package pipe

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// colsSource emits recs as columnar batches of batchLen.
func colsSource(recs []flow.Record, batchLen int) Source {
	return func(emit func(*Batch) error) error {
		for off := 0; off < len(recs); off += batchLen {
			end := off + batchLen
			if end > len(recs) {
				end = len(recs)
			}
			b := NewColsBatch()
			for i := off; i < end; i++ {
				b.Cols.AppendRecord(&recs[i])
			}
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}
}

func batchKey(r *flow.Record) string {
	return fmt.Sprintf("%v|%d|%d|%d|%d", r.Key, r.Packets, r.Bytes,
		r.Start.UnixNano(), r.End.UnixNano())
}

// TestColsBatchLazyMaterialization pins the Batch shape contract: a
// columnar batch reports its columnar length, Records materializes
// once (and caches), and Release detaches the columns so pooled
// batches come back row-shaped.
func TestColsBatchLazyMaterialization(t *testing.T) {
	recs := make([]flow.Record, 100)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	b := NewColsBatch()
	for i := range recs {
		b.Cols.AppendRecord(&recs[i])
	}
	if b.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(recs))
	}
	if len(b.Recs) != 0 {
		t.Fatalf("columnar batch pre-materialized %d records", len(b.Recs))
	}
	got := b.Records()
	if len(got) != len(recs) {
		t.Fatalf("Records materialized %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if batchKey(&got[i]) != batchKey(&recs[i]) {
			t.Fatalf("record %d diverges after materialization", i)
		}
	}
	// Second call must return the cache, not re-materialize.
	if &got[0] != &b.Records()[0] {
		t.Fatal("Records re-materialized instead of returning the cache")
	}
	b.Release()
	nb := NewBatch()
	defer nb.Release()
	if nb.Cols != nil && nb.Cols.Len() != 0 {
		t.Fatal("pooled batch came back with live columns")
	}
}

// colsCollectStage keeps every row, mark and sequence number it is
// handed, column-wise; it fails on a batch that is not columnar.
type colsCollectStage struct {
	cols  flow.Columns
	marks []int64
	seqs  []uint64
}

func (c *colsCollectStage) Process(b *Batch) error {
	if b.Cols == nil || len(b.Recs) != 0 {
		return fmt.Errorf("shard stage got a row batch (%d records)", len(b.Recs))
	}
	c.cols.AppendRange(b.Cols, 0, b.Cols.Len())
	c.marks = append(c.marks, b.Marks...)
	c.seqs = append(c.seqs, b.Seqs...)
	return nil
}

func (c *colsCollectStage) Close() error { return nil }

// TestFanOutColumnarMatchesRowRouting is the pipe-level differential
// for the fan-out's row door: the same records as row batches and as
// columnar batches must give every shard identical columns, watermark
// stamps and sequence numbers, and the fan-out the same final
// watermark. The records cover every address shape the gather encodes
// (IPv4, IPv6, invalid) plus egress rows and sampling rates, and the
// mark filter is selective so stamping is exercised too.
func TestFanOutColumnarMatchesRowRouting(t *testing.T) {
	recs := make([]flow.Record, 3000)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i%97)*time.Second+time.Duration(i)*time.Millisecond))
		switch {
		case i%11 == 0:
			recs[i].Dst = netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", i%5))
		case i%17 == 0:
			recs[i].Src = netip.Addr{}
		}
		if i%3 == 0 {
			recs[i].Direction = flow.Egress
			recs[i].SamplingRate = uint32(1 + i%64)
		}
	}
	run := func(src Source) ([]*colsCollectStage, int64) {
		shards := []*colsCollectStage{{}, {}, {}}
		stages := make([]Stage, len(shards))
		for i, s := range shards {
			stages[i] = s
		}
		f := NewFanOut(KeyDstCols, stages...)
		f.SetMarkFilter(func(c *flow.Columns, i int) bool { return c.DstPort[i]%2 == 0 })
		if err := Run(src, f); err != nil {
			t.Fatalf("run: %v", err)
		}
		return shards, f.Watermark()
	}
	row, rowMark := run(sliceSource(recs, 256))
	col, colMark := run(colsSource(recs, 256))
	if rowMark != colMark {
		t.Fatalf("final watermark: row %d, columnar %d", rowMark, colMark)
	}
	total := 0
	for si := range row {
		r, c := row[si], col[si]
		total += r.cols.Len()
		if !reflect.DeepEqual(r.cols, c.cols) {
			t.Fatalf("shard %d: row-door columns differ from columnar routing", si)
		}
		if !slices.Equal(r.marks, c.marks) || !slices.Equal(r.seqs, c.seqs) {
			t.Fatalf("shard %d: marks or seqs differ", si)
		}
		if len(r.marks) != r.cols.Len() || len(r.seqs) != r.cols.Len() {
			t.Fatalf("shard %d: %d rows but %d marks, %d seqs", si, r.cols.Len(), len(r.marks), len(r.seqs))
		}
	}
	if total != len(recs) {
		t.Fatalf("shards saw %d records, want %d", total, len(recs))
	}
}

// TestFanOutRowDoorAllocatesNothing pins the door gather's steady
// state: once the door and shard slabs have grown, routing a 50-record
// row batch allocates nothing. The multi-shard case runs inline (one
// P), so the count covers the whole route-and-process path.
func TestFanOutRowDoorAllocatesNothing(t *testing.T) {
	recs := make([]flow.Record, 50)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shards := range []int{1, 4} {
		stages := make([]Stage, shards)
		for i := range stages {
			stages[i] = StageFunc{}
		}
		f := NewFanOut(KeyDstCols, stages...)
		f.SetMarkFilter(func(*flow.Columns, int) bool { return true })
		b := &Batch{Recs: recs}
		// Warm up past a few flushes of every shard slab.
		for i := 0; i < 4*DefaultBatchSize; i += len(recs) {
			if err := f.Process(b); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(500, func() {
			if err := f.Process(b); err != nil {
				t.Fatal(err)
			}
		})
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("shards=%d: Process of a %d-record row batch allocates %.2f times per call, want 0",
				shards, len(recs), allocs)
		}
	}
}

// collectColsStage counts records without materializing, to prove the
// columnar path reaches stages columnar.
type collectColsStage struct {
	colRecords int
	rowRecords int
}

func (c *collectColsStage) Process(b *Batch) error {
	if b.Cols != nil {
		c.colRecords += b.Cols.Len()
		return nil
	}
	c.rowRecords += len(b.Recs)
	return nil
}

func (c *collectColsStage) Close() error { return nil }

// TestFanOutColumnarStaysColumnar: whatever shape the source emits,
// shard stages must receive columnar batches only — row batches are
// gathered at the door, columnar ones are never materialized.
func TestFanOutColumnarStaysColumnar(t *testing.T) {
	recs := make([]flow.Record, 1200)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	for name, src := range map[string]Source{"columnar": colsSource(recs, 256), "row": sliceSource(recs, 256)} {
		shards := []*collectColsStage{{}, {}}
		f := NewFanOut(KeyDstCols, shards[0], shards[1])
		if err := Run(src, f); err != nil {
			t.Fatalf("%s source: run: %v", name, err)
		}
		var colTotal, rowTotal int
		for _, s := range shards {
			colTotal += s.colRecords
			rowTotal += s.rowRecords
		}
		if rowTotal != 0 || colTotal != len(recs) {
			t.Fatalf("%s source: stages saw %d columnar, %d row records, want %d columnar only",
				name, colTotal, rowTotal, len(recs))
		}
	}
}

// TestFanOutMixedShapes: alternating row and columnar batches through
// one fan-out must deliver every record exactly once — row batches are
// gathered at the door into the same columnar shard slabs.
func TestFanOutMixedShapes(t *testing.T) {
	recs := make([]flow.Record, 2000)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	mixed := func(emit func(*Batch) error) error {
		for off := 0; off < len(recs); off += 100 {
			end := off + 100
			if end > len(recs) {
				end = len(recs)
			}
			var b *Batch
			if (off/100)%2 == 0 {
				b = NewColsBatch()
				for i := off; i < end; i++ {
					b.Cols.AppendRecord(&recs[i])
				}
			} else {
				b = NewBatch()
				b.Recs = append(b.Recs, recs[off:end]...)
			}
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}
	shards := []*collectStage{{}, {}, {}}
	stages := make([]Stage, len(shards))
	for i, s := range shards {
		stages[i] = s
	}
	if err := RunSharded(mixed, KeyDstCols, stages...); err != nil {
		t.Fatalf("run: %v", err)
	}
	total := 0
	for _, s := range shards {
		total += len(s.dsts)
	}
	if total != len(recs) {
		t.Fatalf("mixed-shape run delivered %d records, want %d", total, len(recs))
	}
}
