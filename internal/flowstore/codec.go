package flowstore

import (
	"encoding/binary"
	"fmt"

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
// the payload buffer) with their encoding tags — the front end of the
// columnar decoder.
type parsedBlock struct {
	cols [nCols][]byte
	encs [nCols]byte
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
