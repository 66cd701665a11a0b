package flowstore

import (
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"slices"

	"booterscope/internal/flow"
)

// blockEncoder turns one staged block of rows into a complete segment
// frame (header, sparse index, v2 payload) without allocating in
// steady state. The Store owns one, guarded by Store.mu — Append and
// Seal already serialize there — so every segment writer shares its
// scratch: the Start-order permutation, one gathered value column, the
// dictionary indices, the dictionary table and the frame buffer. The
// frame it returns aliases that buffer and is valid until the next
// encode.
//
// The bytes are exactly those of the row writer the tests keep as the
// oracle: rows are taken in stable Start order (ties keep arrival
// order), and every value column picks dict, fixed or raw by the same
// size rules.
type blockEncoder struct {
	perm  []int32  // row order: stable by (StartSec, StartNs)
	vals  []uint64 // the column being encoded, gathered in perm order
	idx   []uint8  // per-row dictionary index of vals
	dict  dictTable
	frame []byte
}

// init sizes the per-row scratch for blocks of up to blockRecords
// rows, once per store, so encoding never grows it.
func (e *blockEncoder) init(blockRecords int) {
	e.perm = make([]int32, blockRecords)
	e.vals = make([]uint64, blockRecords)
	e.idx = make([]uint8, blockRecords)
}

// encode builds the frame of the rows staged in c — at least one, at
// most the blockRecords given to init — and returns it with the block's
// sparse index.
//
//bsvet:hotpath
func (e *blockEncoder) encode(c *flow.Columns) (blockIndex, []byte) {
	n := c.Len()
	e.perm, e.vals, e.idx = e.perm[:n], e.vals[:n], e.idx[:n]
	e.sortPerm(c)
	ix := columnIndex(c)

	f := append(e.frame[:0], make([]byte, frameHeadLen)...)
	f = ix.marshal(f)
	f = append(f, 0x00)
	f = binary.AppendUvarint(f, blockFormatV2)
	f = binary.AppendUvarint(f, nCols)
	f = append(f, encRaw)
	f = binary.AppendUvarint(f, uint64(n))
	for _, j := range e.perm {
		f = append(f, c.Flags[j])
	}
	for col := colSrcHiIdx; col < nCols; col++ {
		f = e.appendValueColumn(f, e.gather(c, col), col == colProtoIdx)
	}
	binary.BigEndian.PutUint32(f[0:4], uint32(len(f)-frameHeadLen))
	binary.BigEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(f[frameHeadLen:]))
	e.frame = f
	return ix, f
}

// sortPerm sets e.perm to the stable start-time order of c's rows —
// the order sort.SliceStable with Start.Before gives: (StartSec,
// StartNs) ascending, ties in arrival order.
//
//bsvet:hotpath
func (e *blockEncoder) sortPerm(c *flow.Columns) {
	sec, ns := c.StartSec, c.StartNs
	for i := range e.perm {
		e.perm[i] = int32(i)
	}
	slices.SortStableFunc(e.perm, func(a, b int32) int {
		if c := cmp.Compare(sec[a], sec[b]); c != 0 {
			return c
		}
		return cmp.Compare(ns[a], ns[b])
	})
}

// gather fills e.vals with value column col in perm order: address
// halves, ports, protocol, counters, AS numbers and sampling widen to
// uint64; start seconds become zigzag deltas against the previous row,
// end seconds zigzag offsets from the row's own start.
//
//bsvet:hotpath
func (e *blockEncoder) gather(c *flow.Columns, col int) []uint64 {
	v, p := e.vals, e.perm
	switch col {
	case colSrcHiIdx:
		gatherInto(v, c.SrcHi, p)
	case colSrcLoIdx:
		gatherInto(v, c.SrcLo, p)
	case colDstHiIdx:
		gatherInto(v, c.DstHi, p)
	case colDstLoIdx:
		gatherInto(v, c.DstLo, p)
	case colSrcPortIdx:
		gatherInto(v, c.SrcPort, p)
	case colDstPortIdx:
		gatherInto(v, c.DstPort, p)
	case colProtoIdx:
		gatherInto(v, c.Proto, p)
	case colPacketsIdx:
		gatherInto(v, c.Packets, p)
	case colBytesIdx:
		gatherInto(v, c.Bytes, p)
	case colStartSecIdx:
		prev := int64(0)
		for k, j := range p {
			s := c.StartSec[j]
			v[k] = zigzag(s - prev)
			prev = s
		}
	case colStartNsIdx:
		gatherInto(v, c.StartNs, p)
	case colEndSecIdx:
		for k, j := range p {
			v[k] = zigzag(c.EndSec[j] - c.StartSec[j])
		}
	case colEndNsIdx:
		gatherInto(v, c.EndNs, p)
	case colSrcASIdx:
		gatherInto(v, c.SrcAS, p)
	case colDstASIdx:
		gatherInto(v, c.DstAS, p)
	case colSamplingIdx:
		gatherInto(v, c.Sampling, p)
	}
	return v
}

// gatherInto widens src[perm[k]] into dst[k].
//
//bsvet:hotpath
func gatherInto[T uint8 | uint16 | uint32 | uint64](dst []uint64, src []T, perm []int32) {
	for k, j := range perm {
		dst[k] = uint64(src[j])
	}
}

// uvarintLen is the encoded size of binary.AppendUvarint(nil, v).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendValueColumn appends one value column — encoding tag, length,
// bytes. Dict wins whenever it is no larger than the raw uvarint stream
// (cheapest to decode); otherwise fixed, when the average varint runs
// past half the fixed stride (fixed-width loads decode several times
// faster than per-byte varints); otherwise raw. Sizes are computed
// first so the chosen form is written straight into the frame. A raw
// protocol column is one byte per row, as in v1.
//
//bsvet:hotpath
func (e *blockEncoder) appendValueColumn(f []byte, vals []uint64, protoBytes bool) []byte {
	n := len(vals)
	var rawLen int
	var maxv uint64
	t := &e.dict
	t.reset()
	dictOK := true
	last := vals[0]
	lastIx, _ := t.index(last)
	for i, v := range vals {
		rawLen += uvarintLen(v)
		maxv = max(maxv, v)
		if !dictOK {
			continue
		}
		if v != last {
			ix, ok := t.index(v)
			if !ok {
				dictOK = false
				continue
			}
			last, lastIx = v, ix
		}
		e.idx[i] = lastIx
	}

	if dictOK {
		w := dictWidth(t.n)
		packed := 0
		if w > 0 {
			packed = (n + 8/w - 1) / (8 / w)
		}
		dictLen := uvarintLen(uint64(t.n)) + packed
		for _, d := range t.values[:t.n] {
			dictLen += uvarintLen(d)
		}
		if dictLen <= rawLen {
			f = append(f, encDict)
			f = binary.AppendUvarint(f, uint64(dictLen))
			f = binary.AppendUvarint(f, uint64(t.n))
			for _, d := range t.values[:t.n] {
				f = binary.AppendUvarint(f, d)
			}
			return appendPacked(f, e.idx, w)
		}
	}
	if w := fixedWidth(maxv); w > 1 && rawLen > n*(w/2+1) {
		f = append(f, encFixed)
		f = binary.AppendUvarint(f, uint64(1+n*w))
		f = append(f, byte(w))
		for _, v := range vals {
			switch w {
			case 2:
				f = binary.LittleEndian.AppendUint16(f, uint16(v))
			case 4:
				f = binary.LittleEndian.AppendUint32(f, uint32(v))
			default:
				f = binary.LittleEndian.AppendUint64(f, v)
			}
		}
		return f
	}
	f = append(f, encRaw)
	if protoBytes {
		f = binary.AppendUvarint(f, uint64(n))
		for _, v := range vals {
			f = append(f, byte(v))
		}
		return f
	}
	f = binary.AppendUvarint(f, uint64(rawLen))
	for _, v := range vals {
		f = binary.AppendUvarint(f, v)
	}
	return f
}

// appendPacked bit-packs dictionary indices at width w (0 for a
// constant column), LSB-first within each byte.
//
//bsvet:hotpath
func appendPacked(f []byte, idx []uint8, w int) []byte {
	if w == 0 {
		return f
	}
	perByte := 8 / w
	for i := 0; i < len(idx); i += perByte {
		var b byte
		for k, ix := range idx[i:min(i+perByte, len(idx))] {
			b |= ix << (uint(k) * uint(w))
		}
		f = append(f, b)
	}
	return f
}

// dictSlots sizes the open-addressed dictionary table: a power of two
// at four times maxDictValues keeps probe chains short.
const (
	dictBits  = 10
	dictSlots = 1 << dictBits
)

// dictTable maps one column's distinct values to their first-appearance
// index. Slots are generation-stamped: reset bumps the generation
// instead of clearing the table, so a column costs only its own probes.
type dictTable struct {
	gen    uint32
	stamp  [dictSlots]uint32
	keys   [dictSlots]uint64
	slot   [dictSlots]uint8
	values [maxDictValues]uint64 // distinct values, first-appearance order
	n      int
}

// reset empties the table for the next column.
func (t *dictTable) reset() {
	t.gen++
	if t.gen == 0 {
		t.stamp = [dictSlots]uint32{}
		t.gen = 1
	}
	t.n = 0
}

// index returns v's dictionary index, adding v on first sight. ok is
// false when v would be distinct value maxDictValues+1: the column is
// not low-cardinality and the table must not be used further.
//
//bsvet:hotpath
func (t *dictTable) index(v uint64) (ix uint8, ok bool) {
	h := (v * 0x9e3779b97f4a7c15) >> (64 - dictBits)
	for ; t.stamp[h] == t.gen; h = (h + 1) & (dictSlots - 1) {
		if t.keys[h] == v {
			return t.slot[h], true
		}
	}
	if t.n == maxDictValues {
		return 0, false
	}
	ix = uint8(t.n)
	t.stamp[h], t.keys[h], t.slot[h] = t.gen, v, ix
	t.values[t.n] = v
	t.n++
	return ix, true
}

// columnIndex computes the sparse index of a staged block. Every field
// is a min, max or union, so row order does not matter.
//
//bsvet:hotpath
func columnIndex(c *flow.Columns) blockIndex {
	ix := blockIndex{Records: uint32(c.Len())}
	minSec, maxSec := c.StartSec[0], c.StartSec[0]
	minHi, minLo := c.DstHi[0], c.DstLo[0]
	maxHi, maxLo := minHi, minLo
	for i, sec := range c.StartSec {
		minSec, maxSec = min(minSec, sec), max(maxSec, sec)
		hi, lo := c.DstHi[i], c.DstLo[i]
		if hi < minHi || hi == minHi && lo < minLo {
			minHi, minLo = hi, lo
		}
		if hi > maxHi || hi == maxHi && lo > maxLo {
			maxHi, maxLo = hi, lo
		}
		ix.setProto(c.Proto[i])
	}
	ix.MinStartSec, ix.MaxStartSec = minSec, maxSec
	binary.BigEndian.PutUint64(ix.MinDst[0:8], minHi)
	binary.BigEndian.PutUint64(ix.MinDst[8:16], minLo)
	binary.BigEndian.PutUint64(ix.MaxDst[0:8], maxHi)
	binary.BigEndian.PutUint64(ix.MaxDst[8:16], maxLo)
	return ix
}
