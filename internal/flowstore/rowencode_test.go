package flowstore

import (
	"bytes"
	"encoding/binary"
	"net/netip"

	"booterscope/internal/flow"
)

// The row block writer, kept as test code: the differential oracle the
// production column encoder (encode.go) must match byte for byte, and
// the source of v1 payloads for the backward-compatibility tests and
// the fuzz seed corpus. Records are sorted by Start (sort.SliceStable)
// before buildIndex and encodeBlock see them.

// appendColumn appends a length-prefixed column.
func appendColumn(dst []byte, col []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(col)))
	return append(dst, col...)
}

// addrHalves splits an address's 16-byte form into two big-endian
// uint64 halves. It reads As16 itself rather than calling
// flow.AddrHalves, which the production encoder uses, so the oracle
// stays independent of it.
func addrHalves(a netip.Addr) (hi, lo uint64) {
	b := a.As16()
	return binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
}

// blockValues is the column-major staging area encodeBlock fills before
// choosing per-column encodings.
type blockValues struct {
	flags []byte
	proto []byte
	// vals holds the 14 uvarint value columns (indices colSrcHiIdx..,
	// excluding flags and proto) as raw uint64s; time columns hold their
	// zigzag deltas.
	vals [nCols][]uint64
}

// gather fills the staging arrays from records.
func (bv *blockValues) gather(records []flow.Record) {
	n := len(records)
	bv.flags = append(bv.flags[:0], make([]byte, 0, n)...)
	bv.flags = bv.flags[:0]
	bv.proto = bv.proto[:0]
	for i := colSrcHiIdx; i < nCols; i++ {
		if i == colProtoIdx {
			continue
		}
		bv.vals[i] = bv.vals[i][:0]
	}
	prevStartSec := int64(0)
	for i := range records {
		r := &records[i]
		var flags byte
		if r.Src.IsValid() {
			flags |= flagSrcValid
			if r.Src.Is4() {
				flags |= flagSrcIs4
			}
		}
		if r.Dst.IsValid() {
			flags |= flagDstValid
			if r.Dst.Is4() {
				flags |= flagDstIs4
			}
		}
		if r.Direction == flow.Egress {
			flags |= flagEgress
		}
		bv.flags = append(bv.flags, flags)
		bv.proto = append(bv.proto, r.Protocol)

		shi, slo := addrHalves(r.Src)
		dhi, dlo := addrHalves(r.Dst)
		bv.vals[colSrcHiIdx] = append(bv.vals[colSrcHiIdx], shi)
		bv.vals[colSrcLoIdx] = append(bv.vals[colSrcLoIdx], slo)
		bv.vals[colDstHiIdx] = append(bv.vals[colDstHiIdx], dhi)
		bv.vals[colDstLoIdx] = append(bv.vals[colDstLoIdx], dlo)
		bv.vals[colSrcPortIdx] = append(bv.vals[colSrcPortIdx], uint64(r.SrcPort))
		bv.vals[colDstPortIdx] = append(bv.vals[colDstPortIdx], uint64(r.DstPort))
		bv.vals[colPacketsIdx] = append(bv.vals[colPacketsIdx], r.Packets)
		bv.vals[colBytesIdx] = append(bv.vals[colBytesIdx], r.Bytes)

		ssec := r.Start.Unix()
		bv.vals[colStartSecIdx] = append(bv.vals[colStartSecIdx], zigzag(ssec-prevStartSec))
		prevStartSec = ssec
		bv.vals[colStartNsIdx] = append(bv.vals[colStartNsIdx], uint64(r.Start.Nanosecond()))
		bv.vals[colEndSecIdx] = append(bv.vals[colEndSecIdx], zigzag(r.End.Unix()-ssec))
		bv.vals[colEndNsIdx] = append(bv.vals[colEndNsIdx], uint64(r.End.Nanosecond()))

		bv.vals[colSrcASIdx] = append(bv.vals[colSrcASIdx], uint64(r.SrcAS))
		bv.vals[colDstASIdx] = append(bv.vals[colDstASIdx], uint64(r.DstAS))
		bv.vals[colSamplingIdx] = append(bv.vals[colSamplingIdx], uint64(r.SamplingRate))
	}
}

// appendUvarints appends vals as a raw uvarint stream.
func appendUvarints(dst []byte, vals []uint64) []byte {
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// dictEncode builds the dict form of a value column, reporting ok=false
// when the column is not low-cardinality enough to dictionary-encode.
// Distinct values are listed in first-appearance order — deterministic,
// pinned by the layout golden test.
func dictEncode(vals []uint64) (data []byte, ok bool) {
	var distinct []uint64
	idx := make([]uint8, len(vals))
	pos := make(map[uint64]uint8, 16)
	for i, v := range vals {
		j, seen := pos[v]
		if !seen {
			if len(distinct) >= maxDictValues {
				return nil, false
			}
			j = uint8(len(distinct))
			distinct = append(distinct, v)
			pos[v] = j
		}
		idx[i] = j
	}
	data = binary.AppendUvarint(data, uint64(len(distinct)))
	for _, d := range distinct {
		data = binary.AppendUvarint(data, d)
	}
	w := dictWidth(len(distinct))
	if w > 0 {
		perByte := 8 / w
		packed := (len(vals) + perByte - 1) / perByte
		start := len(data)
		data = append(data, make([]byte, packed)...)
		for i, ix := range idx {
			data[start+i/perByte] |= ix << (uint(i%perByte) * uint(w))
		}
	}
	return data, true
}

// fixedEncode builds the encFixed form of a value column: one width
// byte, then the values little-endian at that stride.
func fixedEncode(vals []uint64, width int) []byte {
	data := make([]byte, 1+len(vals)*width)
	data[0] = byte(width)
	off := 1
	for _, v := range vals {
		switch width {
		case 1:
			data[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(data[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(data[off:], uint32(v))
		default:
			binary.LittleEndian.PutUint64(data[off:], v)
		}
		off += width
	}
	return data
}

// encodeValueColumn picks raw, dict, or fixed encoding for one uvarint
// value column, returning the tag and column bytes. Dict wins whenever
// it is no larger than raw (cheapest to decode); otherwise the column
// is high-entropy, and when its average varint runs past half the
// fixed stride the writer trades at most ~15% size for fixed-width
// loads — the columnar scan decodes those columns several times faster
// than a per-byte varint loop. Everything else stays raw.
func encodeValueColumn(vals []uint64) (byte, []byte) {
	raw := appendUvarints(nil, vals)
	dict, ok := dictEncode(vals)
	if ok && len(dict) <= len(raw) {
		return encDict, dict
	}
	if len(vals) > 0 {
		var maxv uint64
		for _, v := range vals {
			if v > maxv {
				maxv = v
			}
		}
		if w := fixedWidth(maxv); w > 1 && len(raw) > len(vals)*(w/2+1) {
			return encFixed, fixedEncode(vals, w)
		}
	}
	return encRaw, raw
}

// dictableColumns marks the columns the writer attempts dictionary
// encoding on: every value column. The per-block size comparison in
// encodeValueColumn keeps whichever form is smaller, so high-entropy
// columns (random source addresses, byte counters) still land raw
// while the low-cardinality ones — protocol, ports, victim-set
// destination halves, near-constant sampling rates, and the mostly-0/1
// sorted-timestamp deltas — decode via bit-unpack + table lookup
// instead of per-row varints. Only the flags column is excluded: the
// format fixes it as a raw byte column (it doubles as the v1/v2 record
// count sentinel).
var dictableColumns = [nCols]bool{
	colSrcHiIdx:    true,
	colSrcLoIdx:    true,
	colDstHiIdx:    true,
	colDstLoIdx:    true,
	colSrcPortIdx:  true,
	colDstPortIdx:  true,
	colProtoIdx:    true,
	colPacketsIdx:  true,
	colBytesIdx:    true,
	colStartSecIdx: true,
	colStartNsIdx:  true,
	colEndSecIdx:   true,
	colEndNsIdx:    true,
	colSrcASIdx:    true,
	colDstASIdx:    true,
	colSamplingIdx: true,
}

// encodeBlock encodes records into a v2 column payload: 0x00 marker,
// format version, column count, then per-column encoding tags and
// length-prefixed bytes. decodeBlock (and the columnar decoder) is the
// exact inverse.
func encodeBlock(records []flow.Record) []byte {
	var bv blockValues
	bv.gather(records)

	var encs [nCols]byte
	var cols [nCols][]byte
	cols[colFlagsIdx] = bv.flags
	for i := colSrcHiIdx; i < nCols; i++ {
		if i == colProtoIdx {
			protoVals := make([]uint64, len(bv.proto))
			for j, p := range bv.proto {
				protoVals[j] = uint64(p)
			}
			encs[i], cols[i] = encodeValueColumn(protoVals)
			if encs[i] == encRaw {
				// Raw protocol bytes are the v1 byte column, one byte per
				// record, never uvarint-expanded.
				cols[i] = bv.proto
			}
			continue
		}
		if dictableColumns[i] {
			encs[i], cols[i] = encodeValueColumn(bv.vals[i])
			continue
		}
		encs[i], cols[i] = encRaw, appendUvarints(nil, bv.vals[i])
	}

	size := 2 + binary.MaxVarintLen64
	for _, c := range cols {
		size += len(c) + binary.MaxVarintLen64 + 1
	}
	out := make([]byte, 0, size)
	out = append(out, 0x00)
	out = binary.AppendUvarint(out, blockFormatV2)
	out = binary.AppendUvarint(out, nCols)
	for i, c := range cols {
		out = append(out, encs[i])
		out = appendColumn(out, c)
	}
	return out
}

// encodeBlockV1 is the legacy payload writer, kept for the
// backward-compatibility tests and the fuzz seed corpus: archives
// written by older binaries carry exactly this layout.
func encodeBlockV1(records []flow.Record) []byte {
	var bv blockValues
	bv.gather(records)
	var cols [nCols][]byte
	cols[colFlagsIdx] = bv.flags
	cols[colProtoIdx] = bv.proto
	for i := colSrcHiIdx; i < nCols; i++ {
		if i == colProtoIdx {
			continue
		}
		cols[i] = appendUvarints(nil, bv.vals[i])
	}
	size := 0
	for _, c := range cols {
		size += len(c) + binary.MaxVarintLen64
	}
	out := make([]byte, 0, size)
	for _, c := range cols {
		out = appendColumn(out, c)
	}
	return out
}

// buildIndex computes the sparse index of a sorted record block.
func buildIndex(records []flow.Record) blockIndex {
	ix := blockIndex{Records: uint32(len(records))}
	for i := range records {
		r := &records[i]
		sec := r.Start.Unix()
		d := r.Dst.As16()
		if i == 0 {
			ix.MinStartSec, ix.MaxStartSec = sec, sec
			ix.MinDst, ix.MaxDst = d, d
		} else {
			if sec < ix.MinStartSec {
				ix.MinStartSec = sec
			}
			if sec > ix.MaxStartSec {
				ix.MaxStartSec = sec
			}
			if bytes.Compare(d[:], ix.MinDst[:]) < 0 {
				ix.MinDst = d
			}
			if bytes.Compare(d[:], ix.MaxDst[:]) > 0 {
				ix.MaxDst = d
			}
		}
		ix.setProto(r.Protocol)
	}
	return ix
}
