package trace

// Per-segment lightweight codecs for the v2.2 columnar block payload. The
// v2.1 layout encodes every column segment as generic varints; real trace
// columns are wildly skewed — Level/Op/Lib take a handful of values, Rank
// arrives in sorted-ish runs after the k-way merge, Start/End deltas are
// near-constant — so each segment independently picks the lightweight
// encoding a cheap cost model says is smallest:
//
//	segRaw  (0): count × varint/uvarint — exactly the v2.1 segment body.
//	segRLE  (1): runs of (value, uvarint runLen≥1); run lengths sum to count.
//	segDict (2): uvarint ndict; ndict × value in first-appearance order;
//	             byte width; ceil(count·width/8) bytes of bit-packed dict
//	             indices, LSB-first (width = bits(ndict-1)).
//	segFOR  (3): value base (the minimum); byte width (0..64);
//	             ceil(count·width/8) bytes of bit-packed (v − base) offsets,
//	             LSB-first. Subtraction is mod 2^64, so any int64 range packs.
//
// "value" is uvarint for the unsigned columns (Level/Op/Lib) and zigzag
// varint for the rest. Codecs operate on the same stored-value stream v2.1
// defines — Start/End encode their delta chains, every other column its raw
// values — so a v2.2 decode is value-identical to a v2.1 decode of the same
// events. Every segment begins with its codec id byte (the payload is
// self-describing for the streaming Scanner); the VANIIDX4 footer repeats
// the ids so codec-mix statistics never touch block bytes.
//
// Decode kernels unpack a whole segment into the target column slice in one
// pass with pooled []int64 scratch, so the hot FromBlocksSpec path is
// near-zero-alloc. All allocations are bounded by the validated block count
// and by real input bytes: run lengths must sum exactly to count, dict
// sizes may not exceed count, and bit-packed bodies must be fully backed by
// segment bytes — oversized claims are ErrBadFormat, never an OOM.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Segment codec ids (the first byte of every v2.2 column segment).
const (
	segRaw       = 0
	segRLE       = 1
	segDict      = 2
	segFOR       = 3
	numSegCodecs = 4
)

// NumSegCodecs is the number of v2.2 segment codecs; codec-mix counters
// (colstore.ScanStats, /metrics) are indexed by codec id below it.
const NumSegCodecs = numSegCodecs

// Exported segment codec ids, for cross-package kernel registries keyed by
// (operation, codec) — colstore registers which compressed-domain kernels
// each codec can serve.
const (
	SegCodecRaw  uint8 = segRaw
	SegCodecRLE  uint8 = segRLE
	SegCodecDict uint8 = segDict
	SegCodecFOR  uint8 = segFOR
)

// segCodecNames maps codec ids to the names used by flags and reports.
var segCodecNames = [numSegCodecs]string{"raw", "rle", "dict", "for"}

// SegCodecName returns the flag-style name of a segment codec id.
func SegCodecName(id uint8) string {
	if int(id) < len(segCodecNames) {
		return segCodecNames[id]
	}
	return fmt.Sprintf("codec%d", id)
}

// maxDictValues bounds the distinct-value set the dictionary codec will
// consider; columns with more values than this never win on size anyway.
const maxDictValues = 1 << 12

// unsignedCols marks the columns whose stored values are unsigned
// (uvarint-encoded): Level, Op, Lib.
const unsignedCols ColSet = ColLevel | ColOp | ColLib

// i64Pool recycles the []int64 scratch the codec kernels stage stored
// values in; capacity matches the default block size so steady-state decode
// never reallocates.
var i64Pool = sync.Pool{
	New: func() interface{} {
		s := make([]int64, 0, DefaultBlockEvents)
		return &s
	},
}

func getI64(n int) *[]int64 {
	p := i64Pool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	return p
}

func putI64(p *[]int64) { i64Pool.Put(p) }

// appendStoredValue appends one stored value in the column's wire encoding.
func appendStoredValue(dst []byte, v int64, unsigned bool) []byte {
	if unsigned {
		return binary.AppendUvarint(dst, uint64(v))
	}
	return binary.AppendVarint(dst, v)
}

// storedValue reads one stored value in the column's wire encoding.
func (c *byteCursor) storedValue(unsigned bool) int64 {
	if unsigned {
		return int64(c.uvarint())
	}
	return c.varint()
}

// storedValueLen returns the wire size of one stored value.
func storedValueLen(v int64, unsigned bool) int {
	u := uint64(v)
	if !unsigned {
		u = uint64(v<<1) ^ uint64(v>>63) // zigzag, as AppendVarint does
	}
	return (bits.Len64(u|1) + 6) / 7
}

// packedLen returns the byte length of n bit-packed values of the given
// width.
func packedLen(n int, width uint) int {
	return (n*int(width) + 7) / 8
}

// bitsFor returns the pack width needed for offsets in [0, span].
func bitsFor(span uint64) uint { return uint(bits.Len64(span)) }

// appendPacked bit-packs (v − base) mod 2^64 for each value, LSB-first into
// little-endian bytes. width must satisfy (v−base) < 2^width for every v.
func appendPacked(dst []byte, vals []int64, base uint64, width uint) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64 // pending low bits
	var nb uint    // valid bits in acc, < 8 at loop entry
	for _, v := range vals {
		u := uint64(v) - base
		lo := acc | u<<nb
		var hi uint64
		if nb > 0 {
			hi = u >> (64 - nb)
		}
		total := nb + width
		for total >= 8 {
			dst = append(dst, byte(lo))
			lo = lo>>8 | hi<<56
			hi >>= 8
			total -= 8
		}
		acc, nb = lo, total
	}
	if nb > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// maxWordWidth is the widest pack width the word path reads with a single
// 8-byte load: a value starts at bit 0..7 of its first byte, and 7+56 bits
// fit one uint64. Wider values take unpackWide's byte window.
const maxWordWidth = 56

// wordValues returns how many leading values of n width-bit values packed
// in srcLen bytes start early enough that an 8-byte little-endian load at
// their first byte stays inside src: value i qualifies while
// (i*width)>>3 + 8 <= srcLen. The rest take the bounded byte tail.
func wordValues(srcLen, n int, width uint) int {
	if srcLen < 8 {
		return 0
	}
	return min(n, (8*(srcLen-8)+7)/int(width)+1)
}

// tailWord loads the fewer than eight bytes of src from byte p on into the
// low end of a little-endian word.
func tailWord(src []byte, p uint) uint64 {
	var w uint64
	for i, b := range src[p:] {
		w |= uint64(b) << (8 * i)
	}
	return w
}

// unpackInto reads n width-bit values from src (LSB-first), adding base mod
// 2^64, into out[:n]. src must hold packedLen(n, width) bytes. Widths up to
// maxWordWidth load one word per value; the last values, where fewer than
// eight bytes remain, read a bounded byte tail.
func unpackInto(src []byte, n int, width uint, base uint64, out []int64) {
	out = out[:n]
	if width == 0 {
		for i := range out {
			out[i] = int64(base)
		}
		return
	}
	if width > maxWordWidth {
		i := 0
		unpackWide(src, n, width, func(u uint64) bool {
			out[i] = int64(base + u)
			i++
			return true
		})
		return
	}
	mask := uint64(1)<<width - 1
	nw := wordValues(len(src), n, width)
	bit := uint(0)
	for i := 0; i < nw; i++ {
		out[i] = int64(base + binary.LittleEndian.Uint64(src[bit>>3:])>>(bit&7)&mask)
		bit += width
	}
	for i := nw; i < n; i++ {
		out[i] = int64(base + tailWord(src, bit>>3)>>(bit&7)&mask)
		bit += width
	}
}

// segScratch is the per-worker encoder state: the stored-value staging
// slice and the dictionary map, both reused across segments and blocks.
type segScratch struct {
	vals []int64
	dict map[int64]struct{}
}

var segScratchPool = sync.Pool{
	New: func() interface{} {
		return &segScratch{
			vals: make([]int64, 0, DefaultBlockEvents),
			dict: make(map[int64]struct{}, 256),
		}
	},
}

// storedVals stages column col of evs as its stored-value stream (raw
// values, or the delta chain for Start/End) into sc.vals.
func (sc *segScratch) storedVals(col int, evs []Event) []int64 {
	if cap(sc.vals) < len(evs) {
		sc.vals = make([]int64, len(evs))
	}
	vals := sc.vals[:len(evs)]
	switch ColSet(1) << col {
	case ColLevel:
		for i := range evs {
			vals[i] = int64(evs[i].Level)
		}
	case ColOp:
		for i := range evs {
			vals[i] = int64(evs[i].Op)
		}
	case ColLib:
		for i := range evs {
			vals[i] = int64(evs[i].Lib)
		}
	case ColRank:
		for i := range evs {
			vals[i] = int64(evs[i].Rank)
		}
	case ColNode:
		for i := range evs {
			vals[i] = int64(evs[i].Node)
		}
	case ColApp:
		for i := range evs {
			vals[i] = int64(evs[i].App)
		}
	case ColFile:
		for i := range evs {
			vals[i] = int64(evs[i].File)
		}
	case ColOffset:
		for i := range evs {
			vals[i] = evs[i].Offset
		}
	case ColSize:
		for i := range evs {
			vals[i] = evs[i].Size
		}
	case ColStart:
		prev := int64(0)
		for i := range evs {
			s := int64(evs[i].Start)
			vals[i] = s - prev
			prev = s
		}
	case ColEnd:
		prev := int64(0)
		for i := range evs {
			e := int64(evs[i].End)
			vals[i] = e - prev
			prev = e
		}
	}
	sc.vals = vals
	return vals
}

// chooseSegCodec runs the cost model: one pass over the stored values
// computes the exact body size of every candidate encoding, and the
// smallest wins (ties break toward the earlier codec id, so the choice is
// deterministic). Dictionary candidacy is abandoned past maxDictValues.
func chooseSegCodec(vals []int64, unsigned bool, dict map[int64]struct{}) uint8 {
	n := len(vals)
	if n == 0 {
		return segRaw
	}
	rawBytes := 0
	rleBytes := 0
	dictValBytes := 0
	runs := 0
	runLen := 0
	min, max := vals[0], vals[0]
	dictAlive := true
	clear(dict)
	for i, v := range vals {
		sz := storedValueLen(v, unsigned)
		rawBytes += sz
		if i == 0 || v != vals[i-1] {
			if i > 0 {
				rleBytes += lenUvarint(uint64(runLen))
			}
			rleBytes += sz
			runs++
			runLen = 1
		} else {
			runLen++
		}
		if v < min {
			min = v
		} else if v > max {
			max = v
		}
		if dictAlive {
			if _, ok := dict[v]; !ok {
				if len(dict) == maxDictValues {
					dictAlive = false
				} else {
					dict[v] = struct{}{}
					dictValBytes += sz
				}
			}
		}
	}
	rleBytes += lenUvarint(uint64(runLen))

	best, bestBytes := uint8(segRaw), rawBytes
	if rleBytes < bestBytes {
		best, bestBytes = segRLE, rleBytes
	}
	if dictAlive {
		ndict := len(dict)
		w := bitsFor(uint64(ndict - 1))
		dictBytes := lenUvarint(uint64(ndict)) + dictValBytes + 1 + packedLen(n, w)
		if dictBytes < bestBytes {
			best, bestBytes = segDict, dictBytes
		}
	}
	forW := bitsFor(uint64(max) - uint64(min))
	forBytes := storedValueLen(min, unsigned) + 1 + packedLen(n, forW)
	if forBytes < bestBytes {
		best = segFOR
	}
	return best
}

func lenUvarint(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// appendSegBody encodes the stored values under the chosen codec. The
// caller has already appended the codec id byte.
func appendSegBody(dst []byte, codec uint8, vals []int64, unsigned bool) []byte {
	n := len(vals)
	switch codec {
	case segRaw:
		for _, v := range vals {
			dst = appendStoredValue(dst, v, unsigned)
		}
	case segRLE:
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			dst = appendStoredValue(dst, vals[i], unsigned)
			dst = binary.AppendUvarint(dst, uint64(j-i))
			i = j
		}
	case segDict:
		// First-appearance order keeps the encoding deterministic and puts
		// the earliest values at the smallest indices.
		pos := make(map[int64]int64, 16)
		order := make([]int64, 0, 16)
		idx := getI64(n)
		defer putI64(idx)
		for i, v := range vals {
			p, ok := pos[v]
			if !ok {
				p = int64(len(order))
				pos[v] = p
				order = append(order, v)
			}
			(*idx)[i] = p
		}
		dst = binary.AppendUvarint(dst, uint64(len(order)))
		for _, v := range order {
			dst = appendStoredValue(dst, v, unsigned)
		}
		w := bitsFor(uint64(len(order) - 1))
		dst = append(dst, byte(w))
		dst = appendPacked(dst, (*idx)[:n], 0, w)
	case segFOR:
		min := vals[0]
		max := vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			} else if v > max {
				max = v
			}
		}
		w := bitsFor(uint64(max) - uint64(min))
		dst = appendStoredValue(dst, min, unsigned)
		dst = append(dst, byte(w))
		dst = appendPacked(dst, vals, uint64(min), w)
	}
	return dst
}

// appendSegV22 encodes one column of evs as a v2.2 segment (codec id byte +
// body) and returns the chosen codec. force < 0 runs the cost model.
func appendSegV22(dst []byte, col int, evs []Event, force int, sc *segScratch) ([]byte, uint8) {
	unsigned := ColSet(1)<<col&unsignedCols != 0
	vals := sc.storedVals(col, evs)
	var codec uint8
	if len(evs) == 0 {
		codec = segRaw
	} else if force >= 0 {
		codec = uint8(force)
	} else {
		codec = chooseSegCodec(vals, unsigned, sc.dict)
	}
	dst = append(dst, codec)
	return appendSegBody(dst, codec, vals, unsigned), codec
}

// decodeSegVals decodes one segment body (the codec id byte already
// consumed) into out[:n] as stored values. Every claim is validated against
// the cursor's remaining bytes before it allocates or fills anything.
func decodeSegVals(c *byteCursor, codec uint8, n int, unsigned bool, out []int64) error {
	switch codec {
	case segRaw:
		for i := 0; i < n; i++ {
			out[i] = c.storedValue(unsigned)
		}
		return c.err
	case segRLE:
		filled := 0
		for filled < n {
			v := c.storedValue(unsigned)
			rl := c.uvarint()
			if c.err != nil {
				return c.err
			}
			if rl == 0 || rl > uint64(n-filled) {
				return badf("run of %d values in segment holding %d more", rl, n-filled)
			}
			for i := 0; i < int(rl); i++ {
				out[filled+i] = v
			}
			filled += int(rl)
		}
		return nil
	case segDict:
		nd := c.uvarint()
		if c.err != nil {
			return c.err
		}
		if nd == 0 || nd > uint64(n) {
			return badf("dictionary of %d values for %d rows", nd, n)
		}
		dict := getI64(int(nd))
		defer putI64(dict)
		for i := 0; i < int(nd); i++ {
			(*dict)[i] = c.storedValue(unsigned)
		}
		w, err := c.widthByte(32)
		if err != nil {
			return err
		}
		if want := bitsFor(nd - 1); w != want {
			return badf("dictionary of %d values packed at %d bits, want %d", nd, w, want)
		}
		packed, err := c.take(packedLen(n, w))
		if err != nil {
			return err
		}
		unpackInto(packed, n, w, 0, out)
		for i := 0; i < n; i++ {
			idx := uint64(out[i])
			if idx >= nd {
				return badf("dictionary index %d out of %d", idx, nd)
			}
			out[i] = (*dict)[idx]
		}
		return nil
	case segFOR:
		base := c.storedValue(unsigned)
		w, err := c.widthByte(64)
		if err != nil {
			return err
		}
		packed, err := c.take(packedLen(n, w))
		if err != nil {
			return err
		}
		unpackInto(packed, n, w, uint64(base), out)
		return nil
	}
	return badf("unknown segment codec %d", codec)
}

// widthByte reads a bit-width byte bounded by max.
func (c *byteCursor) widthByte(max uint) (uint, error) {
	if c.err != nil {
		return 0, c.err
	}
	if c.off >= len(c.b) {
		c.err = badf("truncated width byte at payload offset %d", c.off)
		return 0, c.err
	}
	w := uint(c.b[c.off])
	c.off++
	if w > max {
		c.err = badf("pack width %d exceeds %d bits", w, max)
		return 0, c.err
	}
	return w, nil
}

// take consumes exactly n bytes, failing (never allocating) when the
// segment does not hold them.
func (c *byteCursor) take(n int) ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	if n < 0 || n > len(c.b)-c.off {
		c.err = badf("packed body of %d bytes exceeds %d remaining", n, len(c.b)-c.off)
		return nil, c.err
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

// decodeSegV22 decodes one v2.2 segment (codec id byte + body) into the
// matching column slice of cols (already grown to n rows), with the same
// value validation the v2.1 decoder applies per column.
func decodeSegV22(c *byteCursor, col, n int, cols *Columns) error {
	if c.err != nil {
		return c.err
	}
	if c.off >= len(c.b) {
		c.err = badf("missing segment codec byte")
		return c.err
	}
	codec := c.b[c.off]
	c.off++
	set := ColSet(1) << col
	unsigned := set&unsignedCols != 0

	// Int64 columns decode straight into their target slice; Start/End
	// store delta chains, accumulated in place below.
	switch set {
	case ColOffset:
		return decodeSegVals(c, codec, n, unsigned, cols.Offset[:n])
	case ColSize:
		return decodeSegVals(c, codec, n, unsigned, cols.Size[:n])
	case ColStart:
		if err := decodeSegVals(c, codec, n, unsigned, cols.Start[:n]); err != nil {
			return err
		}
		prefixSum(cols.Start[:n])
		return nil
	case ColEnd:
		if err := decodeSegVals(c, codec, n, unsigned, cols.End[:n]); err != nil {
			return err
		}
		prefixSum(cols.End[:n])
		return nil
	}

	// Narrow columns stage through pooled scratch, then convert with the
	// v2.1 validation rules (ranks and nodes must fit a non-negative int32).
	vp := getI64(n)
	defer putI64(vp)
	vals := *vp
	if err := decodeSegVals(c, codec, n, unsigned, vals); err != nil {
		return err
	}
	switch set {
	case ColLevel:
		for i := 0; i < n; i++ {
			cols.Level[i] = uint8(vals[i])
		}
	case ColOp:
		for i := 0; i < n; i++ {
			cols.Op[i] = uint8(vals[i])
		}
	case ColLib:
		for i := 0; i < n; i++ {
			cols.Lib[i] = uint8(vals[i])
		}
	case ColRank:
		for i := 0; i < n; i++ {
			if vals[i] < 0 || vals[i] > int64(1<<31-1) {
				return badf("rank %d out of range", vals[i])
			}
			cols.Rank[i] = int32(vals[i])
		}
	case ColNode:
		for i := 0; i < n; i++ {
			if vals[i] < 0 || vals[i] > int64(1<<31-1) {
				return badf("node %d out of range", vals[i])
			}
			cols.Node[i] = int32(vals[i])
		}
	case ColApp:
		for i := 0; i < n; i++ {
			cols.App[i] = int32(vals[i])
		}
	case ColFile:
		for i := 0; i < n; i++ {
			cols.File[i] = int32(vals[i])
		}
	}
	return nil
}

func prefixSum(v []int64) {
	var acc int64
	for i := range v {
		acc += v[i]
		v[i] = acc
	}
}

// Run is one run of equal stored values in an RLE-coded column segment —
// the summary run-aware scan kernels consume without expanding rows.
type Run struct {
	Val int64
	N   int32
}

// decodeSegRuns decodes an RLE segment body into runs without expanding
// values, appending to dst (whose capacity is reused). Valid only for
// value columns (not the Start/End delta chains).
func decodeSegRuns(c *byteCursor, n int, unsigned bool, dst []Run) ([]Run, error) {
	// Each run occupies at least two body bytes (value + length), so the
	// remaining body bounds the run count; one allocation fits them all.
	bound := (len(c.b) - c.off) / 2
	if bound > n {
		bound = n
	}
	runs := dst[:0]
	if cap(runs) < bound {
		runs = make([]Run, 0, bound)
	}
	filled := 0
	for filled < n {
		v := c.storedValue(unsigned)
		rl := c.uvarint()
		if c.err != nil {
			return nil, c.err
		}
		if rl == 0 || rl > uint64(n-filled) {
			return nil, badf("run of %d values in segment holding %d more", rl, n-filled)
		}
		runs = append(runs, Run{Val: v, N: int32(rl)})
		filled += int(rl)
	}
	return runs, nil
}
