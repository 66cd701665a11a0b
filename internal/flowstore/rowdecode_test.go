package flowstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// The row block reader, kept as test code: the differential oracle the
// production columnar reader (colblock.go, segment.go, scan.go) must
// match record for record. decodeBlock decodes one payload row at a
// time with its own per-column cursors; rowScan walks a store's
// manifest and segment files with plain reads and decodes every
// unpruned block with it.

// rowScan is the reference scan: it reads the manifest at dir, prunes
// segments and blocks with the same manifest and block indexes Scan
// uses, decodes every remaining block with decodeBlock, and keeps the
// records q.matches. The records come back in Scan's order — ascending
// Start, ties broken by shard, then by ingest order — and the stats
// count what was read; the row decoder decodes every column of every
// scanned block.
func rowScan(tb testing.TB, dir string, q Query) ([]flow.Record, ScanStats) {
	tb.Helper()
	man, err := loadManifest(dir)
	if err != nil || man == nil {
		tb.Fatalf("row scan: manifest at %s: %v", dir, err)
	}
	segs := append([]SegmentEntry(nil), man.Segments...)
	sort.SliceStable(segs, func(i, j int) bool {
		a, b := segs[i], segs[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.PartitionSec != b.PartitionSec {
			return a.PartitionSec < b.PartitionSec
		}
		return a.File < b.File
	})
	var stats ScanStats
	var out []flow.Record
	for _, e := range segs {
		if q.segPrunable(&e) {
			stats.SegmentsPruned++
			stats.BlocksPruned += int(e.Blocks)
			continue
		}
		stats.SegmentsScanned++
		path := filepath.Join(dir, fmt.Sprintf("shard-%02d", e.Shard), e.File)
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatalf("row scan: %v", err)
		}
		if len(data) < len(segMagic) || [8]byte(data[:8]) != segMagic {
			tb.Fatalf("row scan: %s: bad segment magic", path)
		}
		for off := len(segMagic); off < len(data); {
			body, next, err := readFrame(data, off)
			if err != nil {
				tb.Fatalf("row scan: %s: %v", path, err)
			}
			off = next
			ix, err := unmarshalIndex(body)
			if err != nil {
				tb.Fatalf("row scan: %s: %v", path, err)
			}
			if ix.prunable(&q) {
				stats.BlocksPruned++
				continue
			}
			recs, err := decodeBlock(nil, body[blockIndexLen:], int(ix.Records))
			if err != nil {
				tb.Fatalf("row scan: %s: %v", path, err)
			}
			stats.BlocksScanned++
			stats.RecordsScanned += uint64(len(recs))
			stats.ColumnsDecoded += nCols
			stats.ColumnsTotal += nCols
			for i := range recs {
				if q.matches(&recs[i]) {
					out = append(out, recs[i])
				}
			}
		}
	}
	stats.RecordsMatched = uint64(len(out))
	// Within a shard, partitions are disjoint in start time and were
	// walked in order, so one stable sort over the shard-ordered
	// concatenation yields (Start, shard, ingest order).
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, stats
}

// readFrame checks the frame at off — length in bounds, CRC intact —
// and returns its index+payload bytes and the next frame's offset.
func readFrame(data []byte, off int) (body []byte, next int, err error) {
	if len(data)-off < frameHeadLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint32(data[off:]))
	if n < blockIndexLen || n > len(data)-off-frameHeadLen {
		return nil, 0, fmt.Errorf("frame at offset %d has length %d", off, n)
	}
	body = data[off+frameHeadLen : off+frameHeadLen+n]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[off+4:]) {
		return nil, 0, fmt.Errorf("frame at offset %d fails its CRC check", off)
	}
	return body, off + frameHeadLen + n, nil
}

// addrFromHalves reconstructs an address from its halves and flag bits.
func addrFromHalves(hi, lo uint64, valid, is4 bool) netip.Addr {
	return flow.AddrFromHalves(hi, lo, valid, is4)
}

// parsePayload detects the payload format and splits it into columns.
func parsePayload(payload []byte) (*parsedBlock, error) {
	pb := &parsedBlock{}
	if err := pb.parse(payload); err != nil {
		return nil, err
	}
	return pb, nil
}

// bitReader unpacks fixed-width dict indices, LSB-first within each
// byte.
type bitReader struct {
	b     []byte
	width int
	pos   int // row position
}

func (r *bitReader) next() (uint64, error) {
	if r.width == 0 {
		return 0, nil
	}
	perByte := 8 / r.width
	byteIx := r.pos / perByte
	if byteIx >= len(r.b) {
		return 0, fmt.Errorf("flowstore: dict index column truncated at row %d", r.pos)
	}
	shift := uint(r.pos%perByte) * uint(r.width)
	r.pos++
	return uint64(r.b[byteIx]>>shift) & (1<<uint(r.width) - 1), nil
}

// valueReader iterates one value column row by row regardless of its
// encoding — the row decoder's per-column cursor.
type valueReader struct {
	enc    byte
	raw    colReader
	values []uint64
	bits   bitReader
	fixed  []byte // encFixed values (width byte stripped)
	width  int
	pos    int
}

func newValueReader(col []byte, enc byte, count int) (valueReader, error) {
	v := valueReader{enc: enc}
	switch enc {
	case encRaw:
		v.raw = colReader{b: col}
		return v, nil
	case encFixed:
		w, data, err := fixedHeader(col, count)
		if err != nil {
			return v, err
		}
		v.width, v.fixed = w, data
		return v, nil
	}
	values, packed, err := dictHeader(col, count)
	if err != nil {
		return v, err
	}
	v.values = values
	v.bits = bitReader{b: packed, width: dictWidth(len(values))}
	return v, nil
}

func (v *valueReader) next() (uint64, error) {
	switch v.enc {
	case encRaw:
		return v.raw.uvarint()
	case encFixed:
		off := v.pos * v.width
		if off+v.width > len(v.fixed) {
			return 0, fmt.Errorf("flowstore: fixed column truncated at row %d", v.pos)
		}
		v.pos++
		return fixedLoad(v.fixed[off:], v.width), nil
	}
	ix, err := v.bits.next()
	if err != nil {
		return 0, err
	}
	if ix >= uint64(len(v.values)) {
		return 0, fmt.Errorf("flowstore: dict index %d out of range", ix)
	}
	return v.values[ix], nil
}

// fixedLoad reads one little-endian value at the given width.
func fixedLoad(b []byte, width int) uint64 {
	switch width {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// checkFieldRanges validates the narrow-field casts a decoded row
// performs, so corrupt payloads error instead of silently truncating —
// the row and columnar decoders apply identical checks, which is what
// lets the differential fuzz target require identical outcomes.
func checkFieldRanges(sport, dport, sns, ens, srcAS, dstAS, sampling uint64) error {
	if sport > math.MaxUint16 || dport > math.MaxUint16 {
		return fmt.Errorf("flowstore: port value out of range")
	}
	if sns >= 1e9 || ens >= 1e9 {
		return fmt.Errorf("flowstore: nanosecond value out of range")
	}
	if srcAS > math.MaxUint32 || dstAS > math.MaxUint32 || sampling > math.MaxUint32 {
		return fmt.Errorf("flowstore: 32-bit field out of range")
	}
	return nil
}

// decodeBlock decodes a column payload (either format) into count
// records row at a time, appending to dst and returning it. This is
// the reference decoder: the columnar reader must match it byte for
// byte (the differential tests and the fuzz target pin this).
func decodeBlock(dst []flow.Record, payload []byte, count int) ([]flow.Record, error) {
	pb, err := parsePayload(payload)
	if err != nil {
		return dst, err
	}
	colFlags := pb.cols[colFlagsIdx]
	if pb.encs[colFlagsIdx] != encRaw || len(colFlags) != count {
		return dst, fmt.Errorf("flowstore: flags column length %d, want %d", len(colFlags), count)
	}
	// Protocol: a raw byte column (v1 layout) or an encoded value
	// column, dispatched on its tag.
	var protoAt func(i int) (uint64, error)
	if pb.encs[colProtoIdx] == encRaw {
		colProto := pb.cols[colProtoIdx]
		if len(colProto) != count {
			return dst, fmt.Errorf("flowstore: block byte-column length mismatch (%d flags, %d protos, want %d)",
				len(colFlags), len(colProto), count)
		}
		protoAt = func(i int) (uint64, error) { return uint64(colProto[i]), nil }
	} else {
		vr, err := newValueReader(pb.cols[colProtoIdx], pb.encs[colProtoIdx], count)
		if err != nil {
			return dst, err
		}
		protoAt = func(int) (uint64, error) { return vr.next() }
	}
	var rd [nCols]valueReader
	for i := colSrcHiIdx; i < nCols; i++ {
		if i == colProtoIdx {
			continue
		}
		if rd[i], err = newValueReader(pb.cols[i], pb.encs[i], count); err != nil {
			return dst, err
		}
	}
	prevStartSec := int64(0)
	for i := 0; i < count; i++ {
		flags := colFlags[i]
		shi, err1 := rd[colSrcHiIdx].next()
		slo, err2 := rd[colSrcLoIdx].next()
		dhi, err3 := rd[colDstHiIdx].next()
		dlo, err4 := rd[colDstLoIdx].next()
		sport, err5 := rd[colSrcPortIdx].next()
		dport, err6 := rd[colDstPortIdx].next()
		proto, err7 := protoAt(i)
		pkts, err8 := rd[colPacketsIdx].next()
		bytes, err9 := rd[colBytesIdx].next()
		ssecD, err10 := rd[colStartSecIdx].next()
		sns, err11 := rd[colStartNsIdx].next()
		esecD, err12 := rd[colEndSecIdx].next()
		ens, err13 := rd[colEndNsIdx].next()
		srcAS, err14 := rd[colSrcASIdx].next()
		dstAS, err15 := rd[colDstASIdx].next()
		sampling, err16 := rd[colSamplingIdx].next()
		for _, e := range []error{err1, err2, err3, err4, err5, err6, err7, err8,
			err9, err10, err11, err12, err13, err14, err15, err16} {
			if e != nil {
				return dst, e
			}
		}
		if proto > math.MaxUint8 {
			return dst, fmt.Errorf("flowstore: protocol value out of range")
		}
		if err := checkFieldRanges(sport, dport, sns, ens, srcAS, dstAS, sampling); err != nil {
			return dst, err
		}
		ssec := prevStartSec + unzigzag(ssecD)
		prevStartSec = ssec
		esec := ssec + unzigzag(esecD)
		dst = append(dst, flow.Record{
			Key: flow.Key{
				Src:      addrFromHalves(shi, slo, flags&flagSrcValid != 0, flags&flagSrcIs4 != 0),
				Dst:      addrFromHalves(dhi, dlo, flags&flagDstValid != 0, flags&flagDstIs4 != 0),
				SrcPort:  uint16(sport),
				DstPort:  uint16(dport),
				Protocol: uint8(proto),
			},
			Packets:      pkts,
			Bytes:        bytes,
			Start:        time.Unix(ssec, int64(sns)).UTC(),
			End:          time.Unix(esec, int64(ens)).UTC(),
			SrcAS:        uint32(srcAS),
			DstAS:        uint32(dstAS),
			Direction:    direction(flags),
			SamplingRate: uint32(sampling),
		})
	}
	return dst, nil
}

func direction(flags byte) flow.Direction {
	if flags&flagEgress != 0 {
		return flow.Egress
	}
	return flow.Ingress
}
