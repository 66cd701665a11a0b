package flowstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// rowFrame is the row writer's block frame: sort by Start, index, row
// encode, then header, index and payload — the oracle blockEncoder
// must match byte for byte.
func rowFrame(records []flow.Record) []byte {
	recs := append([]flow.Record(nil), records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	ix := buildIndex(recs)
	payload := encodeBlock(recs)
	frame := make([]byte, 0, frameHeadLen+blockIndexLen+len(payload))
	frame = binary.BigEndian.AppendUint32(frame, uint32(blockIndexLen+len(payload)))
	frame = frame[:frameHeadLen] // leave room for crc
	frame = ix.marshal(frame)
	frame = append(frame, payload...)
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[frameHeadLen:]))
	return frame
}

// stage converts records to the writer's column form, in arrival order.
func stage(records []flow.Record) *flow.Columns {
	c := new(flow.Columns)
	for i := range records {
		c.AppendRecord(&records[i])
	}
	return c
}

// oracleBlock draws one randomized block in arrival order. Shapes cycle
// through the value domain's edges: extreme records (IPv6 and invalid
// addresses, pre-1970 and post-2106 times, max counters), archive-like
// low-cardinality flows, heavy Start ties (equal seconds and equal
// instants), and columns at exactly 256 and 257 distinct values — the
// dictionary's limit.
func oracleBlock(rng *rand.Rand, shape, n int) []flow.Record {
	recs := make([]flow.Record, n)
	switch shape % 4 {
	case 0:
		for i := range recs {
			recs[i] = randRecord(rng)
		}
	case 1:
		recs = genFlows(rng, testBase, 1, n)
		rng.Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	case 2:
		pool := []time.Time{
			testBase,
			testBase.Add(time.Nanosecond),
			testBase.Add(time.Second),
			testBase.Add(time.Second + 5),
			time.Unix(-1, 999_999_999).UTC(),
			time.Unix(1<<33, 0).UTC(),
		}
		for i := range recs {
			recs[i] = randRecord(rng)
			recs[i].Start = pool[rng.Intn(len(pool))]
			recs[i].End = recs[i].Start.Add(time.Duration(rng.Intn(3)) * time.Second)
			recs[i].SrcPort = uint16(i) // tells tied rows apart
		}
	default:
		recs = genFlows(rng, testBase, 1, n)
		for i := range recs {
			recs[i].SrcPort = uint16(i % 256)
			recs[i].DstPort = uint16(i % 257)
			recs[i].Packets = uint64(i%256) << 56
			recs[i].Bytes = math.MaxUint64 - uint64(i%257)
		}
	}
	return recs
}

// TestBlockEncoderMatchesRowOracle is the write side's differential
// oracle: one reused encoder must produce frames byte-equal to the row
// writer over randomized blocks from one record to a full block.
func TestBlockEncoderMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var enc blockEncoder
	enc.init(DefaultBlockRecords)
	sizes := []int{1, 2, 3, 17, 255, 256, 257, 1000, DefaultBlockRecords}
	for trial := 0; trial < 48; trial++ {
		n := sizes[trial%len(sizes)]
		if trial >= 2*len(sizes) {
			n = 1 + rng.Intn(DefaultBlockRecords)
		}
		recs := oracleBlock(rng, trial, n)
		want := rowFrame(recs)
		_, got := enc.encode(stage(recs))
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (shape %d, %d records): frame differs from the row oracle (%d vs %d bytes)",
				trial, trial%4, n, len(got), len(want))
		}
	}
}

// TestDictTableGenerationWrap: when the generation counter wraps, the
// table clears, so slots stamped a full cycle earlier cannot pass for
// current ones.
func TestDictTableGenerationWrap(t *testing.T) {
	var tb dictTable
	tb.reset()
	tb.index(42)
	tb.gen = math.MaxUint32
	tb.reset()
	if ix, ok := tb.index(42); !ok || ix != 0 || tb.n != 1 || tb.values[0] != 42 {
		t.Fatalf("after wrap: index(42) = %d, %v with %d values, want a fresh entry", ix, ok, tb.n)
	}
}

// oracleArchive models the store's write side with the row writer:
// the same shard routing, partitioning, segment naming, stale-partition
// sealing and block flushing, producing the segment files a row-writer
// store would hold.
type oracleArchive struct {
	shards, blockRecords int
	psec                 int64
	files                map[string][]byte
	seq                  []int
	maxPart              []int64
	havePart             []bool
	open                 []map[int64]*oracleSeg
}

type oracleSeg struct {
	name   string
	buf    []flow.Record
	blocks int
}

func newOracleArchive(shards, blockRecords int, partition time.Duration) *oracleArchive {
	o := &oracleArchive{
		shards: shards, blockRecords: blockRecords, psec: int64(partition / time.Second),
		files: map[string][]byte{},
		seq:   make([]int, shards), maxPart: make([]int64, shards), havePart: make([]bool, shards),
	}
	for i := 0; i < shards; i++ {
		o.open = append(o.open, map[int64]*oracleSeg{})
	}
	return o
}

func (o *oracleArchive) append(recs []flow.Record) {
	for i := range recs {
		r := &recs[i]
		sh := shardOf(r, o.shards)
		sec := r.Start.Unix()
		seg := o.segmentFor(sh, sec-mod(sec, o.psec))
		seg.buf = append(seg.buf, *r)
		if len(seg.buf) >= o.blockRecords {
			o.flush(seg)
		}
	}
}

func (o *oracleArchive) segmentFor(sh int, part int64) *oracleSeg {
	if seg, ok := o.open[sh][part]; ok {
		return seg
	}
	if !o.havePart[sh] || part > o.maxPart[sh] {
		o.maxPart[sh], o.havePart[sh] = part, true
		for p, seg := range o.open[sh] {
			if p <= part-2*o.psec {
				o.seal(sh, p, seg)
			}
		}
	}
	seg := &oracleSeg{name: filepath.Join(fmt.Sprintf("shard-%02d", sh), segName(part, o.seq[sh]))}
	o.seq[sh]++
	o.files[seg.name] = append([]byte(nil), segMagic[:]...)
	o.open[sh][part] = seg
	return seg
}

func (o *oracleArchive) flush(seg *oracleSeg) {
	if len(seg.buf) == 0 {
		return
	}
	o.files[seg.name] = append(o.files[seg.name], rowFrame(seg.buf)...)
	seg.blocks++
	seg.buf = seg.buf[:0]
}

func (o *oracleArchive) seal(sh int, part int64, seg *oracleSeg) {
	o.flush(seg)
	if seg.blocks == 0 {
		delete(o.files, seg.name)
	}
	delete(o.open[sh], part)
}

func (o *oracleArchive) sealAll() {
	for sh, open := range o.open {
		for p, seg := range open {
			o.seal(sh, p, seg)
		}
	}
}

// segmentFiles reads every segment file under a store directory.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "seg-") {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSegmentFilesMatchRowOracle compares whole segment files, written
// through Append and Seal at several cadences, against the row-writer
// model: block boundaries, partial blocks flushed by Seal, stale
// partitions sealed by rollover and late records reopening old
// partitions must all land byte-identically.
func TestSegmentFilesMatchRowOracle(t *testing.T) {
	for _, tc := range []struct {
		name         string
		blockRecords int
		batch        int
		sealEvery    int // batches between Seal calls; 0 seals only at Close
	}{
		{"seal-at-close", 128, 500, 0},
		{"seal-every-batch", 128, 300, 1},
		{"seal-every-third", 4096, 700, 3},
		{"small-blocks", 7, 111, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.blockRecords*31 + tc.batch)))
			recs := genFlows(rng, testBase, 4, 6000)
			// Local disorder: late records and start ties across blocks.
			for i := range recs {
				if j := i + rng.Intn(40); j < len(recs) {
					recs[i], recs[j] = recs[j], recs[i]
				}
				if rng.Intn(8) == 0 && i > 0 {
					recs[i].Start = recs[i-1].Start
				}
			}
			for i := 0; i < 60; i++ {
				recs[rng.Intn(len(recs))] = randRecord(rng)
			}

			dir := t.TempDir()
			st, err := Open(dir, Options{Shards: 3, BlockRecords: tc.blockRecords, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			o := newOracleArchive(3, tc.blockRecords, DefaultPartition)
			for b, off := 1, 0; off < len(recs); b, off = b+1, off+tc.batch {
				batch := recs[off:min(off+tc.batch, len(recs))]
				if err := st.Append(batch); err != nil {
					t.Fatal(err)
				}
				o.append(batch)
				if tc.sealEvery > 0 && b%tc.sealEvery == 0 {
					if err := st.Seal(); err != nil {
						t.Fatal(err)
					}
					o.sealAll()
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			o.sealAll()

			got := segmentFiles(t, dir)
			if len(got) != len(o.files) {
				t.Fatalf("store wrote %d segment files, row oracle %d", len(got), len(o.files))
			}
			for name, want := range o.files {
				if !bytes.Equal(got[name], want) {
					t.Fatalf("segment %s differs from the row oracle (%d vs %d bytes)", name, len(got[name]), len(want))
				}
			}
		})
	}
}

// TestFlushAllocatesNothing pins the steady-state write path: once the
// column stage, encoder scratch and frame buffer have grown, staging a
// block and flushing it allocates nothing.
func TestFlushAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 1, BlockRecords: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(5))
	recs := genFlows(rng, testBase, 1, 512)
	for i := range recs {
		// One partition, out of Start order so the sort runs.
		recs[i].Start = testBase.Add(time.Duration(rng.Intn(3600)) * time.Second)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	w, err := newSegmentWriter(st, 0, filepath.Join(dir, "shard-00", segName(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer w.f.Close()
	block := func() {
		for i := range recs {
			if err := w.add(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	block()
	if allocs := testing.AllocsPerRun(20, block); allocs != 0 {
		t.Fatalf("staging and flushing a warmed-up block allocated %v times, want 0", allocs)
	}
	if w.blocks != 22 {
		t.Fatalf("wrote %d blocks, want 22", w.blocks)
	}
}

// BenchmarkBlockEncode measures the block encoder alone: sort, index
// and encode one full block of archive-like flows, staged in exporter
// order (by End, so Start is only roughly sorted).
func BenchmarkBlockEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(97))
	recs := genFlows(rng, testBase, 2, DefaultBlockRecords)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End.Before(recs[j].End) })
	c := stage(recs)
	var enc blockEncoder
	enc.init(DefaultBlockRecords)
	enc.encode(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.encode(c)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/rec")
}

// TestShardOfIsFNV1a pins shard routing to FNV-1a over the flow key's
// bytes — the 16-byte addresses, big-endian ports, protocol — so the
// on-disk shard layout cannot drift.
func TestShardOfIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		r := randRecord(rng)
		h := fnv.New64a()
		src, dst := r.Src.As16(), r.Dst.As16()
		h.Write(src[:])
		h.Write(dst[:])
		h.Write([]byte{byte(r.SrcPort >> 8), byte(r.SrcPort), byte(r.DstPort >> 8), byte(r.DstPort), r.Protocol})
		for shards := 1; shards <= 7; shards++ {
			if got, want := shardOf(&r, shards), int(h.Sum64()%uint64(shards)); got != want {
				t.Fatalf("record %d, %d shards: shardOf %d, FNV-1a %d", i, shards, got, want)
			}
		}
	}
}
