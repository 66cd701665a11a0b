package flowstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"time"

	"booterscope/internal/flow"
)

// Block codec: one block holds up to Options.BlockRecords flow records,
// sorted by Start, encoded column by column. Sorted timestamps make the
// start-second column delta-compress to near nothing; addresses are
// split into two uvarint halves of their 16-byte form, which keeps IPv4
// (12 known bytes) at ~8 bytes per address; counters and ports are raw
// uvarints. The encoding is exact: every field of every record —
// including zero counters, max-uint64 counters, pre-1970 timestamps,
// IPv6 and invalid addresses — round-trips bit-for-bit (times compare
// with time.Time.Equal; decoded times are UTC).
//
// Two payload formats coexist:
//
//   - v1: a bare sequence of 17 length-prefixed columns. Its first byte
//     is uvarint(len(flags column)) — the record count — which is never
//     zero, so a v1 payload never starts with 0x00.
//   - v2: a 0x00 marker byte, uvarint format version, uvarint column
//     count, then per column a one-byte encoding tag followed by the
//     length-prefixed column bytes. Tag 0 (raw) is the v1 byte stream;
//     tag 1 (dict) is dictionary/bitmap encoding, applied to any value
//     column that turns out low-cardinality in a given block (protocol,
//     ports, victim-set destination halves, sampling rates, timestamp
//     deltas): uvarint(#distinct), the distinct values in
//     first-appearance order, then — unless the column is constant —
//     row indices bit-packed at the minimal width in {1, 2, 4, 8} bits.
//
// New blocks are written as v2; both versions decode, so old archives
// keep reading. DESIGN.md §14 documents the layout.

// Per-record flag bits (column 0) — canonical values live in the flow
// package so columnar consumers share them.
const (
	flagSrcIs4   = flow.FlagSrcIs4
	flagDstIs4   = flow.FlagDstIs4
	flagSrcValid = flow.FlagSrcValid
	flagDstValid = flow.FlagDstValid
	flagEgress   = flow.FlagEgress
)

// Column positions in a block payload.
const (
	colFlagsIdx = iota
	colSrcHiIdx
	colSrcLoIdx
	colDstHiIdx
	colDstLoIdx
	colSrcPortIdx
	colDstPortIdx
	colProtoIdx
	colPacketsIdx
	colBytesIdx
	colStartSecIdx
	colStartNsIdx
	colEndSecIdx
	colEndNsIdx
	colSrcASIdx
	colDstASIdx
	colSamplingIdx
	nCols
)

// Column encoding tags (v2).
const (
	encRaw  byte = 0
	encDict byte = 1
	// encFixed stores values little-endian at a fixed byte width (a
	// width byte, then count*width bytes). The writer picks it for
	// high-entropy wide columns — IPv4-mapped source-address low halves
	// run seven varint bytes per value — where a fixed-stride load
	// decodes in one step instead of a per-byte varint loop.
	encFixed byte = 2
)

// blockFormatV2 is the version uvarint following the 0x00 marker.
const blockFormatV2 = 2

// zigzag maps signed to unsigned preserving small magnitudes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// addrFromHalves reconstructs an address from its halves and flag bits.
func addrFromHalves(hi, lo uint64, valid, is4 bool) netip.Addr {
	return flow.AddrFromHalves(hi, lo, valid, is4)
}

// maxDictValues bounds dictionary size; past it a column is not
// low-cardinality and raw encoding wins anyway.
const maxDictValues = 256

// dictWidth returns the packed index width in bits for n distinct
// values: the smallest of {1, 2, 4, 8} that can address them, or 0 for
// a constant column.
func dictWidth(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 2:
		return 1
	case n <= 4:
		return 2
	case n <= 16:
		return 4
	default:
		return 8
	}
}

// fixedWidth returns the smallest byte width in {1, 2, 4, 8} that
// holds maxv.
func fixedWidth(maxv uint64) int {
	switch {
	case maxv < 1<<8:
		return 1
	case maxv < 1<<16:
		return 2
	case maxv < 1<<32:
		return 4
	default:
		return 8
	}
}

// colReader iterates one column's uvarints.
type colReader struct {
	b   []byte
	off int
}

func (c *colReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("flowstore: corrupt column varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// splitColumns cuts a v1 payload back into its length-prefixed columns.
func splitColumns(payload []byte, want int) ([][]byte, error) {
	cols := make([][]byte, 0, want)
	off := 0
	for i := 0; i < want; i++ {
		l, n := binary.Uvarint(payload[off:])
		if n <= 0 || off+n+int(l) > len(payload) || l > uint64(len(payload)) {
			return nil, fmt.Errorf("flowstore: corrupt column %d header", i)
		}
		off += n
		cols = append(cols, payload[off:off+int(l)])
		off += int(l)
	}
	return cols, nil
}

// parsedBlock is a payload cut into per-column byte slices (views into
// the payload buffer) with their encoding tags — the shared front end
// of the row decoder and the columnar decoder.
type parsedBlock struct {
	cols [nCols][]byte
	encs [nCols]byte
}

// parsePayload detects the payload format and splits it into columns.
func parsePayload(payload []byte) (*parsedBlock, error) {
	pb := &parsedBlock{}
	if err := pb.parse(payload); err != nil {
		return nil, err
	}
	return pb, nil
}

// parse detects the payload format and fills pb with column views into
// payload (no copying — pb is valid only while payload is). A v1
// payload's first byte is the flags-column length uvarint, which is
// ≥ 1 for every written block, so a leading 0x00 unambiguously marks
// the v2 header.
func (pb *parsedBlock) parse(payload []byte) error {
	*pb = parsedBlock{}
	if len(payload) == 0 {
		return fmt.Errorf("flowstore: empty block payload")
	}
	if payload[0] != 0x00 {
		cols, err := splitColumns(payload, nCols)
		if err != nil {
			return err
		}
		copy(pb.cols[:], cols)
		return nil
	}
	off := 1
	ver, n := binary.Uvarint(payload[off:])
	if n <= 0 || ver != blockFormatV2 {
		return fmt.Errorf("flowstore: unsupported block format %d", ver)
	}
	off += n
	ncols, n := binary.Uvarint(payload[off:])
	if n <= 0 || ncols != nCols {
		return fmt.Errorf("flowstore: block column count %d, want %d", ncols, nCols)
	}
	off += n
	for i := 0; i < nCols; i++ {
		if off >= len(payload) {
			return fmt.Errorf("flowstore: truncated column %d tag", i)
		}
		enc := payload[off]
		if enc != encRaw && enc != encDict && enc != encFixed {
			return fmt.Errorf("flowstore: column %d has unknown encoding %d", i, enc)
		}
		off++
		l, n := binary.Uvarint(payload[off:])
		if n <= 0 || off+n+int(l) > len(payload) || l > uint64(len(payload)) {
			return fmt.Errorf("flowstore: corrupt column %d header", i)
		}
		off += n
		pb.encs[i] = enc
		pb.cols[i] = payload[off : off+int(l)]
		off += int(l)
	}
	return nil
}

// dictHeader decodes a dict column's value table, returning the values
// and the packed-index bytes that follow. count bounds the table: a
// dictionary can never hold more distinct values than rows.
func dictHeader(col []byte, count int) (values []uint64, packed []byte, err error) {
	rd := colReader{b: col}
	n, err := rd.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if n == 0 || n > maxDictValues || int(n) > count {
		return nil, nil, fmt.Errorf("flowstore: dict column with %d values for %d rows", n, count)
	}
	values = make([]uint64, n)
	for i := range values {
		values[i], err = rd.uvarint()
		if err != nil {
			return nil, nil, err
		}
	}
	return values, col[rd.off:], nil
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

// fixedHeader validates an encFixed column against the row count and
// returns its width and value bytes.
func fixedHeader(col []byte, count int) (width int, data []byte, err error) {
	if len(col) < 1 {
		return 0, nil, fmt.Errorf("flowstore: empty fixed column")
	}
	w := int(col[0])
	switch w {
	case 1, 2, 4, 8:
	default:
		return 0, nil, fmt.Errorf("flowstore: fixed column width %d", w)
	}
	if len(col)-1 != count*w {
		return 0, nil, fmt.Errorf("flowstore: fixed column length %d, want %d", len(col)-1, count*w)
	}
	return w, col[1:], nil
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
// the reference decoder: the columnar fast path must match it byte for
// byte (the differential golden and the fuzz target pin this).
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
