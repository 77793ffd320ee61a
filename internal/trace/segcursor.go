package trace

// SegCursor: compressed-domain access to one encoded v2.2 column segment,
// the substrate the analyzer's kernel registry runs on without materializing
// rows:
//
//   - RLE segments iterate as value runs (Runs / AppendRuns).
//   - Dict segments expose the dictionary (NumCodes / DictVal) plus
//     streaming code-space iteration (ForEachCode) — a predicate translates
//     into the code domain once per block, group-bys key on codes and join
//     the dictionary at the end, and AppendRuns coalesces adjacent equal
//     codes into value runs.
//   - FOR segments answer min/max/sum straight from the stored base and the
//     packed offsets (FORStats) without unpacking into an []int64.
//
// Construction validates every wire claim — run totals, dictionary size and
// pack width, packed byte lengths, code bounds, trailing bytes — so corrupt
// segments surface as ErrBadFormat from SegCursorAt and the iteration
// methods themselves cannot fail. Start and End never get a cursor: their
// segments store delta chains, whose runs and ranges are not value runs or
// value ranges.

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// SegCursor is a validated read cursor over one encoded v2.2 column
// segment. The zero value is not useful; cursors come from
// BlockData.SegCursorAt.
type SegCursor struct {
	codec    uint8
	n        int
	unsigned bool

	runs []Run // segRLE: the decoded run summary

	dict   []int64 // segDict: stored values in first-appearance order
	packed []byte  // segDict: bit-packed codes; segFOR: bit-packed offsets
	width  uint

	base int64 // segFOR: the stored base (the encoder writes the minimum)
}

// segCursorFree recycles cursors (with their run and dictionary backing)
// between blocks, so steady-state compressed-domain scans construct
// cursors without allocating. A bounded freelist rather than a sync.Pool:
// cursor construction sits on the per-block critical path of every
// compressed-domain scan, and a pool's per-GC victim clearing would
// re-allocate the cursor and its backing on every collection cycle. The
// cap bounds retention; the critical section is a few pointer moves
// against milliseconds of per-block decode, so contention is negligible.
var segCursorFree struct {
	mu sync.Mutex
	s  []*SegCursor
}

const segCursorFreeCap = 16

func getSegCursor() *SegCursor {
	segCursorFree.mu.Lock()
	if n := len(segCursorFree.s); n > 0 {
		sc := segCursorFree.s[n-1]
		segCursorFree.s = segCursorFree.s[:n-1]
		segCursorFree.mu.Unlock()
		return sc
	}
	segCursorFree.mu.Unlock()
	return new(SegCursor)
}

// newSegCursor builds a cursor over one segment body (codec id byte already
// stripped). It returns (nil, nil) for codecs without compressed-domain
// structure (raw segments) and ErrBadFormat for any invalid wire claim.
func newSegCursor(codec uint8, body []byte, n int, unsigned bool) (*SegCursor, error) {
	if n <= 0 {
		return nil, nil
	}
	sc := getSegCursor()
	*sc = SegCursor{codec: codec, n: n, unsigned: unsigned, runs: sc.runs[:0], dict: sc.dict[:0]}
	c := &byteCursor{b: body}
	switch codec {
	case segRLE:
		runs, err := decodeSegRuns(c, n, unsigned, sc.runs)
		if err != nil {
			sc.Release()
			return nil, err
		}
		sc.runs = runs
	case segDict:
		nd := c.uvarint()
		if c.err != nil {
			sc.Release()
			return nil, c.err
		}
		if nd == 0 || nd > uint64(n) {
			sc.Release()
			return nil, badf("dictionary of %d values for %d rows", nd, n)
		}
		dict := sc.dict
		if cap(dict) < int(nd) {
			dict = make([]int64, nd)
		} else {
			dict = dict[:nd]
		}
		for i := range dict {
			dict[i] = c.storedValue(unsigned)
		}
		if c.err != nil {
			sc.dict = dict[:0]
			sc.Release()
			return nil, c.err
		}
		sc.dict = dict
		w, err := c.widthByte(32)
		if err != nil {
			sc.Release()
			return nil, err
		}
		if want := bitsFor(nd - 1); w != want {
			sc.Release()
			return nil, badf("dictionary of %d values packed at %d bits, want %d", nd, w, want)
		}
		packed, err := c.take(packedLen(n, w))
		if err != nil {
			sc.Release()
			return nil, err
		}
		// Validate every code up front so iteration never has to.
		bad := -1
		unpackEach(packed, n, w, func(u uint64) bool {
			if u >= nd {
				bad = int(u)
				return false
			}
			return true
		})
		if bad >= 0 {
			sc.Release()
			return nil, badf("dictionary index %d out of %d", bad, nd)
		}
		sc.packed, sc.width = packed, w
	case segFOR:
		base := c.storedValue(unsigned)
		if c.err != nil {
			sc.Release()
			return nil, c.err
		}
		w, err := c.widthByte(64)
		if err != nil {
			sc.Release()
			return nil, err
		}
		packed, err := c.take(packedLen(n, w))
		if err != nil {
			sc.Release()
			return nil, err
		}
		sc.base, sc.packed, sc.width = base, packed, w
	default:
		sc.Release()
		return nil, nil
	}
	if c.off != len(c.b) {
		sc.Release()
		return nil, badf("%d trailing bytes after segment body", len(c.b)-c.off)
	}
	return sc, nil
}

// Release returns the cursor to an internal freelist, retaining its run and
// dictionary backing for the next construction. Releasing is optional —
// unreleased cursors are ordinary garbage — but a released cursor, and any
// slice previously obtained from its Runs, must not be used afterwards.
// Safe on nil.
func (sc *SegCursor) Release() {
	if sc == nil {
		return
	}
	*sc = SegCursor{runs: sc.runs[:0], dict: sc.dict[:0]}
	segCursorFree.mu.Lock()
	if len(segCursorFree.s) < segCursorFreeCap {
		segCursorFree.s = append(segCursorFree.s, sc)
	}
	segCursorFree.mu.Unlock()
}

// Codec returns the segment codec id the cursor runs over.
func (sc *SegCursor) Codec() uint8 { return sc.codec }

// Rows returns the number of rows the segment encodes.
func (sc *SegCursor) Rows() int { return sc.n }

// Runs returns the RLE run summary, or nil for non-RLE segments. The slice
// is owned by the cursor; use AppendRuns for a uniform run view that also
// covers dictionary segments.
func (sc *SegCursor) Runs() []Run {
	if sc.codec != segRLE {
		return nil
	}
	return sc.runs
}

// AppendRuns appends the segment's value runs to dst: RLE runs verbatim,
// dictionary segments as adjacent equal codes coalesced through the
// dictionary, and FOR segments as adjacent equal base+offset values
// coalesced from the packed stream (width 0 — how the cost model stores
// single-valued columns like App — is one run covering every row). A FOR
// segment over a run-structured column (the cost model prefers FOR when
// the value range is tight, not only when values vary per row) thus
// serves the run kernels just like RLE and dict do; pathological
// high-cardinality cases are bounded by the callers' density caps.
func (sc *SegCursor) AppendRuns(dst []Run) []Run {
	dst, _ = sc.AppendRunsMax(dst, 0)
	return dst
}

// AppendRunsMax is AppendRuns with the caller's density cap pushed down
// into the decode: once more than max runs would be emitted the walk stops
// and ok reports false, with dst returned truncated to its prior length —
// so a dense segment (a FOR-packed column whose values alternate per row)
// costs O(max) instead of a full run materialization that the caller would
// drop anyway. max <= 0 means unbounded.
func (sc *SegCursor) AppendRunsMax(dst []Run, max int) (runs []Run, ok bool) {
	base := len(dst)
	over := false
	emit := func(r Run) bool {
		if max > 0 && len(dst)-base >= max {
			over = true
			return false
		}
		dst = append(dst, r)
		return true
	}
	switch sc.codec {
	case segRLE:
		if max > 0 && len(sc.runs) > max {
			return dst, false
		}
		return append(dst, sc.runs...), true
	case segFOR:
		if sc.width == 0 {
			return append(dst, Run{Val: sc.base, N: int32(sc.n)}), true
		}
		b := uint64(sc.base)
		var cur uint64
		var run int32
		first := true
		unpackEach(sc.packed, sc.n, sc.width, func(u uint64) bool {
			if first {
				cur, run, first = u, 1, false
				return true
			}
			if u == cur {
				run++
				return true
			}
			if !emit(Run{Val: int64(b + cur), N: run}) {
				return false
			}
			cur, run = u, 1
			return true
		})
		if !first && !over {
			emit(Run{Val: int64(b + cur), N: run})
		}
	case segDict:
		var cur uint64
		var run int32
		first := true
		unpackEach(sc.packed, sc.n, sc.width, func(u uint64) bool {
			if first {
				cur, run, first = u, 1, false
				return true
			}
			if u == cur {
				run++
				return true
			}
			if !emit(Run{Val: sc.dict[cur], N: run}) {
				return false
			}
			cur, run = u, 1
			return true
		})
		if !first && !over {
			emit(Run{Val: sc.dict[cur], N: run})
		}
	}
	if over {
		return dst[:base], false
	}
	return dst, true
}

// CutRunsSel streams the segment's value runs cut against a selection's
// spans: exactly CutRuns(sc.AppendRuns(nil), spans, dst, max), but fused
// into the decode walk so the block-level run list never materializes —
// peak extra memory is the bounded output, the walk stops the moment the
// bound is passed or the last span is consumed, and a column that is
// block-dense yet selection-sparse (thousands of block runs thinned under
// the cap by a narrow selection) still serves. ok reports false when the
// cut would exceed max (> 0), with dst returned truncated to its prior
// length; raw segments and empty span lists cut to nothing with ok true.
func (sc *SegCursor) CutRunsSel(spans []SelSpan, dst []Run, max int) (runs []Run, ok bool) {
	if len(spans) == 0 {
		return dst, true
	}
	switch sc.codec {
	case segRLE:
		// Runs are already materialized in the cursor; the bounded cut's
		// counting pre-pass sizes the output exactly.
		res := CutRuns(sc.runs, spans, dst, max)
		if res == nil && max > 0 {
			// Over the bound — or an empty cut with nil dst, which the
			// caller cannot use either way.
			return dst, false
		}
		return res, true
	case segFOR, segDict:
	default:
		return dst, true
	}
	base := len(dst)
	over := false
	si := 0
	rs := int32(0) // block row where the current streamed run begins
	// emit intersects one streamed run [rs, re) of value v with the spans,
	// mirroring CutRuns's emission (adjacent equal values coalesce, also
	// across span gaps). It reports whether the walk should continue.
	emit := func(v int64, re int32) bool {
		for si < len(spans) && spans[si].Lo+spans[si].N <= rs {
			si++
		}
		for s := si; s < len(spans) && spans[s].Lo < re; s++ {
			a, b := spans[s].Lo, spans[s].Lo+spans[s].N
			if rs > a {
				a = rs
			}
			if re < b {
				b = re
			}
			if b <= a {
				continue
			}
			if n := len(dst); n > 0 && dst[n-1].Val == v {
				dst[n-1].N += b - a
			} else {
				if max > 0 && len(dst)-base >= max {
					over = true
					return false
				}
				dst = append(dst, Run{Val: v, N: b - a})
			}
		}
		rs = re
		return si < len(spans)
	}
	val := func(u uint64) int64 { return sc.dict[u] }
	if sc.codec == segFOR {
		if sc.width == 0 {
			emit(sc.base, int32(sc.n))
			return dst, true
		}
		b := uint64(sc.base)
		val = func(u uint64) int64 { return int64(b + u) }
	}
	var cur uint64
	var run int32
	first := true
	unpackEach(sc.packed, sc.n, sc.width, func(u uint64) bool {
		if first {
			cur, run, first = u, 1, false
			return true
		}
		if u == cur {
			run++
			return true
		}
		if !emit(val(cur), rs+run) {
			return false
		}
		cur, run = u, 1
		return true
	})
	if !over && !first && si < len(spans) {
		emit(val(cur), rs+run)
	}
	if over {
		return dst[:base], false
	}
	return dst, true
}

// NumCodes returns the dictionary size, or 0 for non-dict segments.
func (sc *SegCursor) NumCodes() int {
	if sc.codec != segDict {
		return 0
	}
	return len(sc.dict)
}

// DictVal returns the stored value for a dictionary code. Codes come from
// ForEachCode, which only ever yields validated codes below NumCodes.
func (sc *SegCursor) DictVal(code uint32) int64 { return sc.dict[code] }

// ForEachCode streams the segment's dictionary codes in row order without
// materializing them; fn returning false stops the walk. It reports whether
// the cursor is a dict cursor at all.
func (sc *SegCursor) ForEachCode(fn func(code uint32) bool) bool {
	if sc.codec != segDict {
		return false
	}
	unpackEach(sc.packed, sc.n, sc.width, func(u uint64) bool { return fn(uint32(u)) })
	return true
}

// ConstVal reports the single value every row stores when the segment is a
// width-0 FOR constant, the encoding the cost model picks for single-valued
// columns.
func (sc *SegCursor) ConstVal() (int64, bool) {
	if sc.codec == segFOR && sc.width == 0 {
		return sc.base, true
	}
	return 0, false
}

// FORStats answers min, max and sum over a FOR segment straight from the
// stored base and packed offsets, without unpacking into an []int64. All
// arithmetic is mod 2^64, exactly matching a sum over the decoded values.
func (sc *SegCursor) FORStats() (min, max, sum int64, ok bool) {
	if sc.codec != segFOR {
		return 0, 0, 0, false
	}
	b := uint64(sc.base)
	if sc.width == 0 {
		return sc.base, sc.base, int64(b * uint64(sc.n)), true
	}
	var mn, mx, s uint64
	first := true
	unpackEach(sc.packed, sc.n, sc.width, func(u uint64) bool {
		if first {
			mn, mx, first = u, u, false
		} else if u < mn {
			mn = u
		} else if u > mx {
			mx = u
		}
		s += u
		return true
	})
	return int64(b + mn), int64(b + mx), int64(b*uint64(sc.n) + s), true
}

// unpackEach streams n width-bit LSB-first values from src through fn
// without materializing them; fn returning false stops the walk. src must
// hold packedLen(n, width) bytes (the callers validated it with take). It
// reads words as unpackInto does.
func unpackEach(src []byte, n int, width uint, fn func(u uint64) bool) {
	if width == 0 {
		for i := 0; i < n; i++ {
			if !fn(0) {
				return
			}
		}
		return
	}
	if width > maxWordWidth {
		unpackWide(src, n, width, fn)
		return
	}
	mask := uint64(1)<<width - 1
	nw := wordValues(len(src), n, width)
	bit := uint(0)
	for i := 0; i < nw; i++ {
		if !fn(binary.LittleEndian.Uint64(src[bit>>3:]) >> (bit & 7) & mask) {
			return
		}
		bit += width
	}
	for i := nw; i < n; i++ {
		if !fn(tailWord(src, bit>>3) >> (bit & 7) & mask) {
			return
		}
		bit += width
	}
}

// unpackWide is unpackEach for widths above maxWordWidth, whose values can
// span nine bytes: bytes feed a 128-bit window one at a time.
func unpackWide(src []byte, n int, width uint, fn func(u uint64) bool) {
	mask := uint64(1)<<width - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	var lo, hi uint64 // 128-bit window: bits fill lo first
	var nb uint
	pos := 0
	for i := 0; i < n; i++ {
		for nb < width {
			b := uint64(src[pos])
			pos++
			if nb < 64 {
				lo |= b << nb
				if nb > 56 {
					hi |= b >> (64 - nb)
				}
			} else {
				hi |= b << (nb - 64)
			}
			nb += 8
		}
		if !fn(lo & mask) {
			return
		}
		lo = lo>>width | hi<<(64-width)
		if width == 64 {
			lo = hi
		}
		hi >>= width
		nb -= width
	}
}

// SegCursorAt builds a compressed-domain cursor over column col's segment.
// It returns (nil, nil) when the column has no compressed-domain structure —
// raw segments, the Start/End delta chains, empty blocks, or blocks without
// v2.2 codec ids — and ErrBadFormat when the segment's wire claims are
// invalid. The cursor reads the block payload in place and is safe for
// concurrent use once built.
func (bd *BlockData) SegCursorAt(col int) (*SegCursor, error) {
	set := ColSet(1) << col
	if !bd.hasCodecs || bd.count == 0 || set&(ColStart|ColEnd) != 0 {
		return nil, nil
	}
	if bd.segCodecs[col] == segRaw {
		return nil, nil
	}
	off := int64(bd.segBase)
	for i := 0; i < col; i++ {
		off += bd.colLens[i]
	}
	cur, err := newSegCursor(bd.segCodecs[col], bd.payload[off+1:off+bd.colLens[col]], bd.count, set&unsignedCols != 0)
	if err != nil {
		return nil, fmt.Errorf("block %d %s column: %w", bd.block, colNames[col], err)
	}
	return cur, nil
}

// ValueRuns returns the value-run summary of a column in the compressed
// domain: RLE runs directly, dictionary and FOR segments as coalesced
// value runs. It returns (nil, nil) for columns without run structure
// (raw codec, Start/End, non-v2.2 blocks). A superset of DecodeRuns.
func (bd *BlockData) ValueRuns(col int) ([]Run, error) {
	cur, err := bd.SegCursorAt(col)
	if err != nil || cur == nil {
		return nil, err
	}
	switch cur.codec {
	case segRLE:
		return cur.runs, nil
	case segDict, segFOR:
		return cur.AppendRuns(nil), nil
	}
	return nil, nil
}
