package trace

// Columnar block payloads and the v2.1 footer. PR 2's block payloads are
// row-interleaved: every column of every event must be varint-decoded even
// when a scan touches two columns. The columnar layout re-shapes each block
// into eleven independent, self-contained column segments (Start and End
// are each delta-chained within their own segment), and the v2.1 footer
// records every segment's byte length plus per-block rank bounds and
// level/op bitmasks — so a scan plan can skip whole blocks from the index
// and decode only the segments its column set names.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// footerMagicV3 marks the v2.1 footer: v2.0 entries extended with per-block
// min/max rank, level/op bitmasks, and per-column segment byte lengths.
const footerMagicV3 = "VANIIDX3"

// footerMagicV4 marks the v2.2 footer: v2.1 entries extended with the
// per-column segment codec ids, so codec-mix statistics and run-aware scan
// planning never have to touch block bytes.
const footerMagicV4 = "VANIIDX4"

// Columnar block payload codecs. The payload is:
//
//	uvarint count
//	NumCols × segment, in ColSet bit order:
//	    Level, Op, Lib        count × uvarint
//	    Rank, Node            count × varint (bounded to int32)
//	    App, File             count × varint
//	    Offset, Size          count × varint
//	    Start                 count × varint: delta chain from 0
//	    End                   count × varint: delta chain from 0
//
// Each segment decodes with no state from any other, so a projected read
// touches only the byte ranges the footer records for the wanted columns.
const (
	codecRawCol   = 2
	codecFlateCol = 3
)

// v2.2 columnar payload codecs: the same segment order, but every segment
// begins with a codec id byte and its body uses the segment codec it names
// (see segcodec.go). Flate remains an optional outer layer.
const (
	codecRawColV22   = 4
	codecFlateColV22 = 5
)

// payloadKind identifies a block payload layout after frame unwrapping.
type payloadKind int

const (
	payloadRow    payloadKind = iota // PR 2 row-interleaved events
	payloadCol                       // v2.1 columnar, raw-varint segments
	payloadColV22                    // v2.2 columnar, per-segment codecs
)

// blockStatsCol computes a block's full v2.1 footer statistics: time and
// rank bounds plus level/op occupancy masks (the pruning surface).
func blockStatsCol(evs []Event) BlockInfo {
	bi := BlockInfo{Count: len(evs), HasStats: true}
	if len(evs) == 0 {
		return bi
	}
	bi.MinStart, bi.MaxStart = evs[0].Start, evs[0].Start
	bi.MinRank, bi.MaxRank = evs[0].Rank, evs[0].Rank
	for i := range evs {
		e := &evs[i]
		if e.Start < bi.MinStart {
			bi.MinStart = e.Start
		} else if e.Start > bi.MaxStart {
			bi.MaxStart = e.Start
		}
		if e.Rank < bi.MinRank {
			bi.MinRank = e.Rank
		} else if e.Rank > bi.MaxRank {
			bi.MaxRank = e.Rank
		}
		if uint(e.Level) < 32 {
			bi.LevelMask |= 1 << e.Level
		}
		if uint(e.Op) < 32 {
			bi.OpMask |= 1 << e.Op
		}
	}
	return bi
}

// appendColSegment encodes one column of evs as an independent segment.
func appendColSegment(dst []byte, col int, evs []Event) []byte {
	switch ColSet(1) << col {
	case ColLevel:
		for i := range evs {
			dst = binary.AppendUvarint(dst, uint64(evs[i].Level))
		}
	case ColOp:
		for i := range evs {
			dst = binary.AppendUvarint(dst, uint64(evs[i].Op))
		}
	case ColLib:
		for i := range evs {
			dst = binary.AppendUvarint(dst, uint64(evs[i].Lib))
		}
	case ColRank:
		for i := range evs {
			dst = binary.AppendVarint(dst, int64(evs[i].Rank))
		}
	case ColNode:
		for i := range evs {
			dst = binary.AppendVarint(dst, int64(evs[i].Node))
		}
	case ColApp:
		for i := range evs {
			dst = binary.AppendVarint(dst, int64(evs[i].App))
		}
	case ColFile:
		for i := range evs {
			dst = binary.AppendVarint(dst, int64(evs[i].File))
		}
	case ColOffset:
		for i := range evs {
			dst = binary.AppendVarint(dst, evs[i].Offset)
		}
	case ColSize:
		for i := range evs {
			dst = binary.AppendVarint(dst, evs[i].Size)
		}
	case ColStart:
		prev := int64(0)
		for i := range evs {
			s := int64(evs[i].Start)
			dst = binary.AppendVarint(dst, s-prev)
			prev = s
		}
	case ColEnd:
		prev := int64(0)
		for i := range evs {
			e := int64(evs[i].End)
			dst = binary.AppendVarint(dst, e-prev)
			prev = e
		}
	}
	return dst
}

// decodeColSegment decodes n values of one column segment from c into the
// matching slice of cols (already grown to n rows).
func decodeColSegment(c *byteCursor, col, n int, cols *Columns) error {
	switch ColSet(1) << col {
	case ColLevel:
		for i := 0; i < n; i++ {
			cols.Level[i] = uint8(c.uvarint())
		}
	case ColOp:
		for i := 0; i < n; i++ {
			cols.Op[i] = uint8(c.uvarint())
		}
	case ColLib:
		for i := 0; i < n; i++ {
			cols.Lib[i] = uint8(c.uvarint())
		}
	case ColRank:
		for i := 0; i < n; i++ {
			cols.Rank[i] = int32(boundedInt(c, "rank"))
		}
	case ColNode:
		for i := 0; i < n; i++ {
			cols.Node[i] = int32(boundedInt(c, "node"))
		}
	case ColApp:
		for i := 0; i < n; i++ {
			cols.App[i] = int32(c.varint())
		}
	case ColFile:
		for i := 0; i < n; i++ {
			cols.File[i] = int32(c.varint())
		}
	case ColOffset:
		for i := 0; i < n; i++ {
			cols.Offset[i] = c.varint()
		}
	case ColSize:
		for i := 0; i < n; i++ {
			cols.Size[i] = c.varint()
		}
	case ColStart:
		prev := int64(0)
		for i := 0; i < n; i++ {
			prev += c.varint()
			cols.Start[i] = prev
		}
	case ColEnd:
		prev := int64(0)
		for i := 0; i < n; i++ {
			prev += c.varint()
			cols.End[i] = prev
		}
	}
	return c.err
}

// encodeColumnarFrame encodes one block's events as a v2.1 columnar payload
// wrapped in a frame, returning the footer entry (pruning stats plus the
// per-column byte ranges the projected read path seeks by).
func encodeColumnarFrame(evs []Event, compress bool) ([]byte, BlockInfo) {
	bi := blockStatsCol(evs)
	pp := getPayloadBuf(16 + minEventBytes*2*len(evs))
	payload := binary.AppendUvarint((*pp)[:0], uint64(len(evs)))
	for col := 0; col < NumCols; col++ {
		n := len(payload)
		payload = appendColSegment(payload, col, evs)
		bi.ColLens[col] = int64(len(payload) - n)
	}
	frame := wrapFrame(payload, compress, payloadCol)
	*pp = payload
	putPayloadBuf(pp)
	return frame, bi
}

// encodeColumnarFrameV22 encodes one block's events as a v2.2 columnar
// payload: every segment carries its codec id byte and the body the cost
// model (or the forced codec, when force >= 0) chose. The footer entry
// records the per-segment byte ranges and codec ids.
func encodeColumnarFrameV22(evs []Event, compress bool, force int) ([]byte, BlockInfo) {
	bi := blockStatsCol(evs)
	bi.HasCodecs = true
	sc := segScratchPool.Get().(*segScratch)
	pp := getPayloadBuf(16 + minEventBytes*2*len(evs))
	payload := binary.AppendUvarint((*pp)[:0], uint64(len(evs)))
	for col := 0; col < NumCols; col++ {
		n := len(payload)
		payload, bi.SegCodecs[col] = appendSegV22(payload, col, evs, force, sc)
		bi.ColLens[col] = int64(len(payload) - n)
	}
	frame := wrapFrame(payload, compress, payloadColV22)
	if compress && force < 0 {
		// Deflate feeds on exactly the byte-level redundancy the
		// lightweight codecs strip: a bitpacked or dictionary segment is
		// near-incompressible while its raw varint form often deflates
		// below it. Under an outer flate layer, auto mode therefore also
		// tries the all-raw payload and keeps whichever frame compressed
		// smaller — per block, so the choice stays deterministic at any
		// encode parallelism.
		rawBi := bi
		rp := getPayloadBuf(16 + minEventBytes*2*len(evs))
		raw := binary.AppendUvarint((*rp)[:0], uint64(len(evs)))
		for col := 0; col < NumCols; col++ {
			n := len(raw)
			raw, rawBi.SegCodecs[col] = appendSegV22(raw, col, evs, segRaw, sc)
			rawBi.ColLens[col] = int64(len(raw) - n)
		}
		if rawFrame := wrapFrame(raw, true, payloadColV22); len(rawFrame) < len(frame) {
			frame, bi = rawFrame, rawBi
		}
		*rp = raw
		putPayloadBuf(rp)
	}
	segScratchPool.Put(sc)
	*pp = payload
	putPayloadBuf(pp)
	return frame, bi
}

// decodeBlockColumnsSeq decodes a columnar payload sequentially — every
// segment in order — for readers without footer byte ranges (the streaming
// Scanner, or crafted logs pairing columnar payloads with a v2.0 footer).
func decodeBlockColumnsSeq(payload []byte, blockEvents int, cols *Columns) error {
	c := &byteCursor{b: payload}
	count := c.uvarint()
	if c.err != nil {
		return c.err
	}
	if err := checkBlockCount(count, len(payload), blockEvents); err != nil {
		return err
	}
	cols.grow(int(count))
	for col := 0; col < NumCols; col++ {
		if err := decodeColSegment(c, col, int(count), cols); err != nil {
			return fmt.Errorf("%s column: %w", colNames[col], err)
		}
	}
	if c.off != len(payload) {
		return badf("%d trailing bytes after block columns", len(payload)-c.off)
	}
	return nil
}

// decodeBlockColumnsSeqV22 is decodeBlockColumnsSeq for v2.2 payloads: each
// segment is self-describing (codec id byte first), so sequential readers
// decode without any footer metadata.
func decodeBlockColumnsSeqV22(payload []byte, blockEvents int, cols *Columns) error {
	c := &byteCursor{b: payload}
	count := c.uvarint()
	if c.err != nil {
		return c.err
	}
	if err := checkPayloadCount(count, len(payload), blockEvents, payloadColV22); err != nil {
		return err
	}
	cols.grow(int(count))
	for col := 0; col < NumCols; col++ {
		if err := decodeSegV22(c, col, int(count), cols); err != nil {
			return fmt.Errorf("%s column: %w", colNames[col], err)
		}
	}
	if c.off != len(payload) {
		return badf("%d trailing bytes after block columns", len(payload)-c.off)
	}
	return nil
}

// colsToEvents transposes decoded columns into row-major events, appending
// into dst's capacity (dst is reset).
func colsToEvents(cols *Columns, dst []Event) []Event {
	dst = dst[:0]
	for i := 0; i < cols.N; i++ {
		dst = append(dst, Event{
			Level:  Level(cols.Level[i]),
			Op:     Op(cols.Op[i]),
			Lib:    Lib(cols.Lib[i]),
			Rank:   cols.Rank[i],
			Node:   cols.Node[i],
			App:    cols.App[i],
			File:   cols.File[i],
			Offset: cols.Offset[i],
			Size:   cols.Size[i],
			Start:  time.Duration(cols.Start[i]),
			End:    time.Duration(cols.End[i]),
		})
	}
	return dst
}

// BlockData is one block's unwrapped payload held in memory for on-demand
// column materialization: colstore's lazy chunks keep a BlockData and
// decode individual segments only when an analysis kernel first touches
// them. Decode is additive over a shared Columns value and is not safe for
// concurrent use on the same receiver (colstore serializes per-chunk
// materialization behind the chunk's lock).
type BlockData struct {
	payload     []byte
	kind        payloadKind
	projectable bool
	count       int
	blockEvents int
	block       int
	segBase     int
	colLens     [NumCols]int64
	segCodecs   [NumCols]uint8
	hasCodecs   bool
	memo        *colMemo
}

// colMemo caches a block's fully decoded columns so a handle shared across
// requests (vanid's block cache) decodes its payload exactly once.
type colMemo struct {
	mu     sync.Mutex
	filled bool
	cols   Columns
	bytes  int64 // payload bytes decoded by the single fill
}

// memoRowBytes is the resident size of one decoded row across all eleven
// columns (3 × uint8, 4 × int32, 4 × int64) — the cache-budget estimate for
// a filled memo.
const memoRowBytes = 3*1 + 4*4 + 4*8

// MemoRowBytes is the worst-case resident bytes one memoized row costs —
// the budget unit for memory-bounded block caches.
const MemoRowBytes = memoRowBytes

// EnableMemo arms the block's decoded-column memo: the first Decode call
// materializes every column once and reports its decoded byte count; every
// later call copies the cached values out and reports zero decoded bytes.
// A memoized BlockData is safe for concurrent Decode calls — that is what
// lets vanid's shared block cache hand one handle to many requests.
func (bd *BlockData) EnableMemo() {
	if bd.memo == nil {
		bd.memo = &colMemo{}
	}
}

// MemoBytes returns the resident size of the decoded-column memo once
// filled, for cache byte budgeting.
func (bd *BlockData) MemoBytes() int64 { return int64(bd.count) * memoRowBytes }

// copyColumns fills the columns of set in dst with copies of src's values.
// The memo's slices are shared across requests, so callers get copies they
// are free to adopt, reuse, or overwrite.
func copyColumns(dst, src *Columns, set ColSet) {
	dst.growSet(src.N, set)
	if set&ColLevel != 0 {
		copy(dst.Level, src.Level)
	}
	if set&ColOp != 0 {
		copy(dst.Op, src.Op)
	}
	if set&ColLib != 0 {
		copy(dst.Lib, src.Lib)
	}
	if set&ColRank != 0 {
		copy(dst.Rank, src.Rank)
	}
	if set&ColNode != 0 {
		copy(dst.Node, src.Node)
	}
	if set&ColApp != 0 {
		copy(dst.App, src.App)
	}
	if set&ColFile != 0 {
		copy(dst.File, src.File)
	}
	if set&ColOffset != 0 {
		copy(dst.Offset, src.Offset)
	}
	if set&ColSize != 0 {
		copy(dst.Size, src.Size)
	}
	if set&ColStart != 0 {
		copy(dst.Start, src.Start)
	}
	if set&ColEnd != 0 {
		copy(dst.End, src.End)
	}
}

// Count returns the number of events in the block.
func (bd *BlockData) Count() int { return bd.count }

// PayloadBytes returns the unwrapped payload size in bytes.
func (bd *BlockData) PayloadBytes() int { return len(bd.payload) }

// Projectable reports whether single columns decode independently (columnar
// payload with footer byte ranges). Otherwise any Decode call performs a
// full-block decode regardless of the requested set.
func (bd *BlockData) Projectable() bool { return bd.projectable }

// ReadBlock fetches and unwraps block k, validating the payload's count
// prefix and — for projectable blocks — that the footer's column byte
// ranges tile the payload exactly. v2.2 payloads additionally validate each
// segment's leading codec id (and its agreement with the footer's, when the
// footer carries codec ids). The returned BlockData is independent of the
// reader's file handle.
func (br *BlockReader) ReadBlock(k int) (*BlockData, error) {
	payload, kind, err := br.readBlockPayload(k)
	if err != nil {
		return nil, err
	}
	bi := br.blocks[k]
	bd := &BlockData{
		payload:     payload,
		kind:        kind,
		count:       bi.Count,
		blockEvents: br.blockEvents,
		block:       k,
	}
	if kind == payloadRow {
		return bd, nil
	}
	c := &byteCursor{b: payload}
	count := c.uvarint()
	if c.err != nil {
		return nil, fmt.Errorf("block %d: %w", k, c.err)
	}
	if err := checkPayloadCount(count, len(payload), br.blockEvents, kind); err != nil {
		return nil, fmt.Errorf("block %d: %w", k, err)
	}
	if int(count) != bi.Count {
		return nil, badf("block %d payload holds %d events, index says %d", k, count, bi.Count)
	}
	if bi.HasStats {
		sum := int64(c.off)
		for _, cl := range bi.ColLens {
			sum += cl
		}
		if sum != int64(len(payload)) {
			return nil, badf("block %d column ranges cover %d of %d payload bytes", k, sum, len(payload))
		}
		bd.segBase = c.off
		bd.colLens = bi.ColLens
		bd.projectable = true
		if kind == payloadColV22 {
			// Each segment leads with its codec id; validate it and check
			// it against the footer's claim when one exists.
			off := int64(c.off)
			for col := 0; col < NumCols; col++ {
				if bi.ColLens[col] < 1 {
					return nil, badf("block %d %s column: empty v2.2 segment", k, colNames[col])
				}
				id := payload[off]
				if id >= numSegCodecs {
					return nil, badf("block %d %s column: unknown segment codec %d", k, colNames[col], id)
				}
				if bi.HasCodecs && id != bi.SegCodecs[col] {
					return nil, badf("block %d %s column: payload codec %d, footer says %d", k, colNames[col], id, bi.SegCodecs[col])
				}
				bd.segCodecs[col] = id
				off += bi.ColLens[col]
			}
			bd.hasCodecs = true
		}
	}
	return bd, nil
}

// SegCodec returns the segment codec id of the given column for v2.2
// projectable blocks, and whether codec ids are known at all.
func (bd *BlockData) SegCodec(col int) (uint8, bool) {
	if !bd.hasCodecs {
		return 0, false
	}
	return bd.segCodecs[col], true
}

// DecodeRuns decodes the RLE run summary of a value column without
// expanding rows — the input to colstore's run-aware scan kernels. It
// returns (nil, nil) when the column is not RLE-coded (or the block is not
// a projectable v2.2 block); Start and End never qualify because their
// segments store delta chains, whose runs are not value runs.
func (bd *BlockData) DecodeRuns(col int) ([]Run, error) {
	set := ColSet(1) << col
	if !bd.hasCodecs || bd.segCodecs[col] != segRLE || set&(ColStart|ColEnd) != 0 {
		return nil, nil
	}
	off := int64(bd.segBase)
	for i := 0; i < col; i++ {
		off += bd.colLens[i]
	}
	c := &byteCursor{b: bd.payload[off+1 : off+bd.colLens[col]]}
	runs, err := decodeSegRuns(c, bd.count, set&unsignedCols != 0, nil)
	if err != nil {
		return nil, fmt.Errorf("block %d %s column: %w", bd.block, colNames[col], err)
	}
	if c.off != len(c.b) {
		return nil, badf("block %d %s column: %d trailing bytes", bd.block, colNames[col], len(c.b)-c.off)
	}
	return runs, nil
}

// Decode materializes the requested columns into cols, growing it to the
// block's row count, and returns the payload bytes it actually decoded.
// Projectable blocks decode only the wanted segments; row-layout blocks and
// columnar blocks without byte ranges fall back to a full decode (every
// column filled, full payload size reported). Additive: columns decoded by
// an earlier call on the same cols are preserved. Memoized blocks (see
// EnableMemo) decode every column exactly once and serve later calls as
// copies of the same columns a direct decode would fill, reporting zero
// decoded bytes.
func (bd *BlockData) Decode(want ColSet, cols *Columns) (int64, error) {
	m := bd.memo
	if m == nil {
		return bd.decodeInto(want, cols)
	}
	if !bd.projectable {
		want = AllCols
	}
	m.mu.Lock()
	if !m.filled {
		n, err := bd.decodeInto(AllCols, &m.cols)
		if err != nil {
			m.mu.Unlock()
			return 0, err
		}
		m.bytes, m.filled = n, true
		m.mu.Unlock()
		copyColumns(cols, &m.cols, want)
		return n, nil
	}
	m.mu.Unlock()
	copyColumns(cols, &m.cols, want)
	return 0, nil
}

// decodeInto is Decode without the memo layer.
func (bd *BlockData) decodeInto(want ColSet, cols *Columns) (int64, error) {
	if !bd.projectable {
		var err error
		switch bd.kind {
		case payloadColV22:
			err = decodeBlockColumnsSeqV22(bd.payload, bd.blockEvents, cols)
		case payloadCol:
			err = decodeBlockColumnsSeq(bd.payload, bd.blockEvents, cols)
		default:
			err = decodeBlockColumns(bd.payload, bd.blockEvents, cols)
		}
		if err != nil {
			return 0, fmt.Errorf("block %d: %w", bd.block, err)
		}
		if cols.N != bd.count {
			return 0, badf("block %d decodes %d events, index says %d", bd.block, cols.N, bd.count)
		}
		return int64(len(bd.payload)), nil
	}
	cols.growSet(bd.count, want)
	// The count prefix was parsed by ReadBlock; only segment bytes count.
	var decoded int64
	off := int64(bd.segBase)
	for col := 0; col < NumCols; col++ {
		cl := bd.colLens[col]
		if want&(ColSet(1)<<col) != 0 {
			c := &byteCursor{b: bd.payload[off : off+cl]}
			var err error
			if bd.kind == payloadColV22 {
				err = decodeSegV22(c, col, bd.count, cols)
			} else {
				err = decodeColSegment(c, col, bd.count, cols)
			}
			if err != nil {
				return decoded, fmt.Errorf("block %d %s column: %w", bd.block, colNames[col], err)
			}
			if c.off != int(cl) {
				return decoded, badf("block %d %s column: %d trailing bytes", bd.block, colNames[col], int(cl)-c.off)
			}
			decoded += cl
		}
		off += cl
	}
	return decoded, nil
}
