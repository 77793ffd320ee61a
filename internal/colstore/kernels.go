package colstore

// The compressed-domain kernel registry. Every aggregation the analyzer
// runs is expressed as a kernel request keyed by (operation, segment
// codec): a registry entry means the operation can be answered straight
// from the encoded segment — predicate evaluation on dictionary codes or
// RLE runs, group-by and counting on run summaries, min/max from FOR
// headers, key-span scans over merged run structure — and a miss falls
// back to materializing the column and iterating rows. Both paths produce
// byte-identical results (the equivalence suite runs the full codec matrix
// with kernels force-disabled); per-kernel served/fallback counters in
// ScanStats make the split observable end-to-end, from `-v` CLI output to
// the vanid /metrics endpoint.

import (
	"errors"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"vani/internal/parallel"
	"vani/internal/trace"
)

var errNotValueCol = errors.New("colstore: ColMinMax requires a single int64 value column")

// KernelOp names a compressed-domain kernel operation. Served/fallback
// counters in ScanStats are indexed by it.
type KernelOp int

// The kernel operations.
const (
	// KPredicate evaluates the scan plan's pushed-down row predicate in the
	// compressed domain: translated into the code domain once per block for
	// dict segments, per run for RLE segments.
	KPredicate KernelOp = iota
	// KCountEq counts rows equal to a key from run summaries.
	KCountEq
	// KSumEq sums a value column over key-matching runs without reading the
	// key column per row.
	KSumEq
	// KHist builds value histograms with one increment per run.
	KHist
	// KGroupBy groups rows by key from run summaries, one range append per
	// run instead of one map operation per row.
	KGroupBy
	// KMinMax answers column min/max from FOR segment headers without
	// unpacking the segment.
	KMinMax
	// KKeySpan fuses the five stable key columns (level, rank, node, app,
	// file) into spans, dispatching per row on op — the span kernel the
	// analyzer's passes 1 and 2 request for every chunk.
	KKeySpan
	// KTimelineAdd is run-aware timeline accumulation: spans of rows bucket
	// into stats.Timeline bins in O(bins-crossed) instead of O(rows), by
	// segmenting the span's time-sorted rows at bin boundaries.
	KTimelineAdd
	// KHistAdd is run-aware size-histogram accumulation: a constant-size
	// run of rows adds count×size to its bucket in O(1).
	KHistAdd
	// NumKernelOps bounds the per-kernel counter arrays.
	NumKernelOps
)

var kernelOpNames = [NumKernelOps]string{
	"predicate", "counteq", "sumeq", "hist", "groupby", "minmax", "keyspan",
	"tladd", "histadd",
}

// String returns the kernel operation's short name.
func (op KernelOp) String() string {
	if op < 0 || op >= NumKernelOps {
		return "unknown"
	}
	return kernelOpNames[op]
}

// kernelCaps is the registry: kernelCaps[op][codec] reports whether the
// kernel operation can be served from segments of that codec. Populated in
// init via RegisterKernel.
var kernelCaps [NumKernelOps][trace.NumSegCodecs]bool

// registerKernel records that op can run in the compressed domain over
// segments of the given codec.
func registerKernel(op KernelOp, codec uint8) { kernelCaps[op][codec] = true }

// KernelServes reports whether the registry can serve op from segments of
// the given codec (observability for tests).
func KernelServes(op KernelOp, codec uint8) bool {
	return op >= 0 && op < NumKernelOps && int(codec) < trace.NumSegCodecs &&
		kernelCaps[op][codec]
}

func init() {
	// Run-structured codecs serve every run- and code-domain kernel.
	for _, codec := range []uint8{trace.SegCodecRLE, trace.SegCodecDict} {
		registerKernel(KPredicate, codec)
		registerKernel(KCountEq, codec)
		registerKernel(KSumEq, codec)
		registerKernel(KHist, codec)
		registerKernel(KGroupBy, codec)
		registerKernel(KKeySpan, codec)
	}
	// FOR segments coalesce into value runs too (SegCursor.AppendRuns
	// unpacks base+offset adjacency), so they serve the run- and
	// code-domain kernels — all but KPredicate, whose selection paths
	// dispatch on dict/RLE structure directly (Runs/ForEachCode) and
	// never consult a captured run summary.
	for _, op := range []KernelOp{KCountEq, KSumEq, KHist, KGroupBy, KKeySpan} {
		registerKernel(op, trace.SegCodecFOR)
	}
	// The run-aware distribution accumulators batch over any span structure
	// the run-structured codecs produced (the Start/End values themselves
	// come from materialized columns — their segments are delta chains).
	for _, codec := range []uint8{trace.SegCodecRLE, trace.SegCodecDict, trace.SegCodecFOR} {
		registerKernel(KTimelineAdd, codec)
		registerKernel(KHistAdd, codec)
	}
	// FOR headers answer range queries without unpacking.
	registerKernel(KMinMax, trace.SegCodecFOR)
	kernelsOff.Store(false)
}

// kernelsOff gates every compressed-domain kernel (inverted so the zero
// value means enabled). The equivalence suite and benchmarks flip it to
// prove the fallback path is byte-identical and to measure the win.
var kernelsOff atomic.Bool

// SetKernelsEnabled turns compressed-domain kernels on or off globally.
// Off, every kernel request falls back to materialized row iteration —
// results must be byte-identical either way.
func SetKernelsEnabled(on bool) { kernelsOff.Store(!on) }

// KernelsEnabled reports whether compressed-domain kernels are on.
func KernelsEnabled() bool { return !kernelsOff.Load() }

// tickKernel records one served or fallback kernel request against the
// table's scan stats (a no-op for eagerly built tables, which have none).
func (t *Table) tickKernel(op KernelOp, served bool) {
	if t.stats != nil {
		t.stats.tickKernel(op, served)
	}
}

// TickAccumKernels records one chunk pass's run-aware distribution
// accumulator requests: served when span structure let the pass batch its
// timeline and size-histogram accumulation (KTimelineAdd/KHistAdd),
// fallback when it bucketed per row. The analyzer's pass-2 scans call this
// once per chunk so the batched/per-row split is observable end to end.
func (t *Table) TickAccumKernels(served bool) {
	t.tickKernel(KTimelineAdd, served)
	t.tickKernel(KHistAdd, served)
}

// runUsable reports whether the chunk has a run summary for run column ri
// that the registry can serve op from. A single run covering the whole
// chunk — a constant column, which the cost model stores as width-0 FOR —
// serves any run kernel regardless of which codec produced it.
func (c *Chunk) runUsable(op KernelOp, ri int) bool {
	runs := c.runs[ri]
	if runs == nil {
		return false
	}
	if kernelCaps[op][c.runCodec[ri]] {
		return true
	}
	return len(runs) == 1 && int(runs[0].N) == c.N
}

// keyRunCols are the run columns a key span holds constant: the four
// groupable key columns plus level. Op is deliberately absent — it
// alternates nearly every event in real traces, so spans that also held op
// constant would almost never form.
var keyRunCols = [...]int{int(ColRank), int(ColNode), int(ColApp), int(ColFile), runLevel}

// KeySpan is a maximal run of chunk rows over which the five stable key
// columns — level, rank, node, app, file — are constant. Op varies within
// the span and is dispatched per row by the caller. Lo is inclusive, Hi
// exclusive, both chunk-relative.
type KeySpan struct {
	Lo, Hi     int
	Level      uint8
	Rank, Node int32
	App, File  int32
}

// keySpans merges the chunk's five stable-key run summaries into key
// spans, appending to dst. It reports false (serving nothing) unless every
// key column carries a registry-served run summary.
func (c *Chunk) keySpans(dst []KeySpan) ([]KeySpan, bool) {
	for _, ri := range keyRunCols {
		if !c.runUsable(KKeySpan, ri) {
			return dst, false
		}
	}
	var idx, rem [len(keyRunCols)]int
	for i, ri := range keyRunCols {
		rem[i] = int(c.runs[ri][0].N)
	}
	row := 0
	for row < c.N {
		n := rem[0]
		for i := 1; i < len(keyRunCols); i++ {
			if rem[i] < n {
				n = rem[i]
			}
		}
		dst = append(dst, KeySpan{
			Lo:    row,
			Hi:    row + n,
			Rank:  int32(c.runs[ColRank][idx[0]].Val),
			Node:  int32(c.runs[ColNode][idx[1]].Val),
			App:   int32(c.runs[ColApp][idx[2]].Val),
			File:  int32(c.runs[ColFile][idx[3]].Val),
			Level: uint8(c.runs[runLevel][idx[4]].Val),
		})
		row += n
		for i, ri := range keyRunCols {
			if rem[i] -= n; rem[i] == 0 {
				if idx[i]++; idx[i] < len(c.runs[ri]) {
					rem[i] = int(c.runs[ri][idx[i]].N)
				} else if row < c.N {
					return dst, false // summaries must tile the chunk exactly
				}
			}
		}
	}
	return dst, true
}

// ChunkKeySpans is the analyzer's span-scan kernel request for chunk k:
// the chunk's stable-key spans appended to dst, or ok == false when any key
// column lacks a served run summary (the caller iterates rows instead).
// Either way the request is counted in the scan stats.
func (t *Table) ChunkKeySpans(k int, dst []KeySpan) ([]KeySpan, bool) {
	if !KernelsEnabled() {
		t.tickKernel(KKeySpan, false)
		return dst, false
	}
	dst, ok := t.chunks[k].keySpans(dst)
	t.tickKernel(KKeySpan, ok)
	return dst, ok
}

// emptySel is the canonical zero-row selection: non-nil (so it is distinct
// from "every row") and shared, so total-drop blocks allocate nothing.
var emptySel = []int32{}

// synthCol carries a filter column materialized straight from the run
// summary during direct selection: the selected rows' values are already
// known from the runs the predicate was evaluated on, so the column is
// filled at exact size without ever decoding its segment. At most one of
// the typed slices is set, named by set. The synthesized values reproduce
// the decoder's conversions exactly — uint8 truncation for level and op,
// and the rank bounds the predicate already validated.
type synthCol struct {
	set   trace.ColSet
	level []uint8
	op    []uint8
	rank  []int32
}

// init sizes the typed slice for the dimension at exact final capacity.
func (s *synthCol) init(set trace.ColSet, cnt int) {
	s.set = set
	switch set {
	case trace.ColLevel:
		s.level = make([]uint8, 0, cnt)
	case trace.ColOp:
		s.op = make([]uint8, 0, cnt)
	case trace.ColRank:
		s.rank = make([]int32, 0, cnt)
	}
}

// appendN appends n copies of v, converted as the decoder would.
func (s *synthCol) appendN(v int64, n int) {
	switch s.set {
	case trace.ColLevel:
		for i := 0; i < n; i++ {
			s.level = append(s.level, uint8(v))
		}
	case trace.ColOp:
		for i := 0; i < n; i++ {
			s.op = append(s.op, uint8(v))
		}
	case trace.ColRank:
		for i := 0; i < n; i++ {
			s.rank = append(s.rank, int32(v))
		}
	}
}

// install hands the synthesized column to the chunk.
func (s *synthCol) install(ck *Chunk) {
	switch s.set {
	case trace.ColLevel:
		ck.Level = s.level
	case trace.ColOp:
		ck.Op = s.op
	case trace.ColRank:
		ck.Rank = s.rank
	}
}

// compressedSel builds the row selection directly from a single dimension's
// compressed segment, when the filter constrains exactly one dimension and
// that dimension's segment has run or code structure. Run lengths give the
// exact match count before any row is touched, so the selection vector is
// allocated once at its final size — something the materialized path cannot
// do without a counting pre-pass — no keep bitmap exists at all, and the
// filter column itself is synthesized from the runs (syn), so its segment
// is never decoded. all == true means every row passed (the caller keeps
// the whole block); ok == false means the fast path does not apply and the
// caller must fall back to compressedKeep / materialized selection.
//
// need is the matcher's constrained-dimension set for this block — the
// caller passes Matcher.NeedColsBlock, so a window the block's index entry
// proves wholly containing has already dropped out and a window+rank
// filter lands here as a pure rank filter on interior blocks.
func compressedSel(m *trace.Matcher, need trace.ColSet, bd *trace.BlockData) (sel []int32, syn synthCol, all, ok bool) {
	if !KernelsEnabled() || (need != trace.ColLevel && need != trace.ColOp && need != trace.ColRank) {
		return nil, syn, false, false
	}
	for _, d := range predDims {
		if need != d.set {
			continue
		}
		cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(d.set)))
		if err != nil || cur == nil {
			return nil, syn, false, false
		}
		n := bd.Count()
		if v, cok := cur.ConstVal(); cok {
			cur.Release()
			pass, valid := d.accept(m, v)
			if !valid {
				return nil, syn, false, false
			}
			if pass {
				return nil, syn, true, true
			}
			return emptySel, syn, false, true
		}
		if !kernelCaps[KPredicate][cur.Codec()] {
			cur.Release()
			return nil, syn, false, false
		}
		if nd := cur.NumCodes(); nd > 0 {
			// Dict: translate the predicate into the code domain once, count
			// matches with one code stream, fill with a second.
			acceptCode := make([]bool, nd)
			for code := 0; code < nd; code++ {
				pass, valid := d.accept(m, cur.DictVal(uint32(code)))
				if !valid {
					cur.Release()
					return nil, syn, false, false
				}
				acceptCode[code] = pass
			}
			cnt := 0
			cur.ForEachCode(func(code uint32) bool {
				if acceptCode[code] {
					cnt++
				}
				return true
			})
			switch cnt {
			case n:
				cur.Release()
				return nil, syn, true, true
			case 0:
				cur.Release()
				return emptySel, syn, false, true
			}
			sel = make([]int32, 0, cnt)
			syn.init(need, cnt)
			row := int32(0)
			cur.ForEachCode(func(code uint32) bool {
				if acceptCode[code] {
					sel = append(sel, row)
					syn.appendN(cur.DictVal(code), 1)
				}
				row++
				return true
			})
			cur.Release()
			return sel, syn, false, true
		}
		// RLE: one predicate evaluation per run; pass one counts, pass two
		// fills. The runs must tile the block exactly (construction validates
		// this; keep the guard so a codec added later without run totals
		// can't silently serve).
		runs := cur.Runs()
		cnt, row := 0, 0
		for _, r := range runs {
			pass, valid := d.accept(m, r.Val)
			if !valid {
				cur.Release()
				return nil, syn, false, false
			}
			if pass {
				cnt += int(r.N)
			}
			row += int(r.N)
		}
		if row != n {
			cur.Release()
			return nil, syn, false, false
		}
		switch cnt {
		case n:
			cur.Release()
			return nil, syn, true, true
		case 0:
			cur.Release()
			return emptySel, syn, false, true
		}
		sel = make([]int32, 0, cnt)
		syn.init(need, cnt)
		row = 0
		for _, r := range runs {
			if pass, _ := d.accept(m, r.Val); pass {
				for j := row; j < row+int(r.N); j++ {
					sel = append(sel, int32(j))
				}
				syn.appendN(r.Val, int(r.N))
			}
			row += int(r.N)
		}
		cur.Release()
		return sel, syn, false, true
	}
	return nil, syn, false, false
}

// passRun is one maximal segment of block rows sharing a predicate
// outcome for a single dimension — a dimension's run summary with the
// values already evaluated away, coalesced on the outcome so the
// intersection below walks as few segments as possible.
type passRun struct {
	n    int32
	pass bool
}

// appendPassRuns evaluates one dimension's predicate over its encoded
// segment and appends outcome runs covering all n block rows: one run for
// a constant segment, predicate-per-run for RLE, predicate-per-code plus a
// code stream for dict. ok == false means the segment has no usable
// structure (or a stored value would fail decode validation) and the
// multi-dimension fast path cannot serve this block.
func appendPassRuns(m *trace.Matcher, d *predDim, cur *trace.SegCursor, n int, dst []passRun) ([]passRun, bool) {
	put := func(pass bool, cnt int32) []passRun {
		if len(dst) > 0 && dst[len(dst)-1].pass == pass {
			dst[len(dst)-1].n += cnt
			return dst
		}
		return append(dst, passRun{cnt, pass})
	}
	if v, cok := cur.ConstVal(); cok {
		pass, valid := d.accept(m, v)
		if !valid {
			return dst, false
		}
		return put(pass, int32(n)), true
	}
	if !kernelCaps[KPredicate][cur.Codec()] {
		return dst, false
	}
	if nd := cur.NumCodes(); nd > 0 {
		acceptCode := make([]bool, nd)
		for code := 0; code < nd; code++ {
			pass, valid := d.accept(m, cur.DictVal(uint32(code)))
			if !valid {
				return dst, false
			}
			acceptCode[code] = pass
		}
		cur.ForEachCode(func(code uint32) bool {
			dst = put(acceptCode[code], 1)
			return true
		})
		return dst, true
	}
	row := 0
	for _, r := range cur.Runs() {
		pass, valid := d.accept(m, r.Val)
		if !valid {
			return dst, false
		}
		dst = put(pass, r.N)
		row += int(r.N)
	}
	return dst, row == n
}

// compressedSelMulti is the multi-dimension direct-selection path: when a
// filter constrains two or more of level/op/rank (and nothing else — a
// Start bound needs rows), each dimension's run summary evaluates into
// outcome runs and the runs intersect in lockstep, emitting the selection
// vector directly at exact final size — no keep bitmap, no residual row
// pass. A first intersection walk counts (and short-circuits whole-pass
// and whole-drop blocks without allocating), a second fills. The fill walk
// already visits the selection one contiguous pass segment at a time, so
// it emits that run structure alongside the vector (spans, coalesced) —
// the selection's spans feed the run re-cut instead of being rediscovered
// from the dense indices. eligible reports whether the filter shape
// qualifies at all (for the run-isect counters); ok whether every
// dimension was run-representable. need is the block-reduced constrained
// set (Matcher.NeedColsBlock).
func compressedSelMulti(m *trace.Matcher, need trace.ColSet, bd *trace.BlockData) (sel []int32, spans []trace.SelSpan, all, ok, eligible bool) {
	const dims3 = trace.ColLevel | trace.ColOp | trace.ColRank
	if !KernelsEnabled() || need&^dims3 != 0 || bits.OnesCount64(uint64(need)) < 2 {
		return nil, nil, false, false, false
	}
	n := bd.Count()
	var lists [3][]passRun
	nd := 0
	for i := range predDims {
		d := &predDims[i]
		if need&d.set == 0 {
			continue
		}
		cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(d.set)))
		if err != nil || cur == nil {
			return nil, nil, false, false, true
		}
		pr, prOK := appendPassRuns(m, d, cur, n, nil)
		cur.Release()
		if !prOK {
			return nil, nil, false, false, true
		}
		lists[nd] = pr
		nd++
	}
	// Pass one: count matches by intersecting outcome runs in lockstep.
	var idx, rem [3]int
	for i := 0; i < nd; i++ {
		rem[i] = int(lists[i][0].n)
	}
	cnt := 0
	for row := 0; row < n; {
		seg := rem[0]
		pass := lists[0][idx[0]].pass
		for i := 1; i < nd; i++ {
			if rem[i] < seg {
				seg = rem[i]
			}
			pass = pass && lists[i][idx[i]].pass
		}
		if pass {
			cnt += seg
		}
		row += seg
		for i := 0; i < nd; i++ {
			if rem[i] -= seg; rem[i] == 0 && idx[i]+1 < len(lists[i]) {
				idx[i]++
				rem[i] = int(lists[i][idx[i]].n)
			}
		}
	}
	switch cnt {
	case n:
		return nil, nil, true, true, true
	case 0:
		return emptySel, nil, false, true, true
	}
	// Pass two: fill the selection at exact size, emitting its run
	// structure (contiguous kept spans, coalesced across dimension
	// boundaries) as it goes.
	sel = make([]int32, 0, cnt)
	idx, rem = [3]int{}, [3]int{}
	for i := 0; i < nd; i++ {
		rem[i] = int(lists[i][0].n)
	}
	for row := 0; row < n; {
		seg := rem[0]
		pass := lists[0][idx[0]].pass
		for i := 1; i < nd; i++ {
			if rem[i] < seg {
				seg = rem[i]
			}
			pass = pass && lists[i][idx[i]].pass
		}
		if pass {
			for j := row; j < row+seg; j++ {
				sel = append(sel, int32(j))
			}
			if ns := len(spans); ns > 0 && spans[ns-1].Lo+spans[ns-1].N == int32(row) {
				spans[ns-1].N += int32(seg)
			} else {
				spans = append(spans, trace.SelSpan{Lo: int32(row), N: int32(seg)})
			}
		}
		row += seg
		for i := 0; i < nd; i++ {
			if rem[i] -= seg; rem[i] == 0 && idx[i]+1 < len(lists[i]) {
				idx[i]++
				rem[i] = int(lists[i][idx[i]].n)
			}
		}
	}
	return sel, spans, false, true, true
}

// compressedKeep evaluates the matcher's per-dimension predicates in the
// compressed domain: for each constrained dimension whose segment the
// registry serves, a keep bitmap is narrowed — dict segments translate the
// predicate into the code domain once and stream codes, RLE segments test
// once per run — and the dimension leaves the residual set. Dimensions
// whose segments are unserved, or whose stored values would fail decode
// validation, stay residual so materialization reproduces the decode
// error exactly. keep == nil with served dimensions means every row passed
// them. Start never evaluates compressed (its segment is a delta chain) —
// though a block whose index entry proves the window containing arrives
// with ColStart already dropped from need (Matcher.NeedColsBlock), the
// one case where the window costs nothing at all.
func compressedKeep(m *trace.Matcher, need trace.ColSet, bd *trace.BlockData) (kb *keepBuf, residual trace.ColSet, served bool) {
	residual = need
	if !KernelsEnabled() || residual&^trace.ColStart == 0 {
		return nil, residual, false
	}
	n := bd.Count()
	var keep []bool
	for _, d := range predDims {
		if residual&d.set == 0 {
			continue
		}
		cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(d.set)))
		if err != nil || cur == nil {
			continue
		}
		if v, ok := cur.ConstVal(); ok {
			// Constant column: one predicate evaluation covers the block.
			cur.Release()
			pass, valid := d.accept(m, v)
			if !valid {
				continue
			}
			if !pass {
				if kb == nil {
					kb = newKeep(n)
					keep = kb.b
				}
				for x := range keep {
					keep[x] = false
				}
			}
			residual &^= d.set
			served = true
			continue
		}
		if !kernelCaps[KPredicate][cur.Codec()] {
			cur.Release()
			continue
		}
		if nd := cur.NumCodes(); nd > 0 {
			// Dict: translate the predicate into the code domain once.
			acceptCode := make([]bool, nd)
			valid, all := true, true
			for code := 0; code < nd; code++ {
				pass, ok := d.accept(m, cur.DictVal(uint32(code)))
				if !ok {
					valid = false
					break
				}
				acceptCode[code] = pass
				all = all && pass
			}
			if !valid {
				cur.Release()
				continue
			}
			if !all {
				if kb == nil {
					kb = newKeep(n)
					keep = kb.b
				}
				row := 0
				cur.ForEachCode(func(code uint32) bool {
					if !acceptCode[code] {
						keep[row] = false
					}
					row++
					return true
				})
			}
			cur.Release()
			residual &^= d.set
			served = true
			continue
		}
		// RLE: one predicate evaluation per run. The runs must tile the
		// block exactly (construction validates this; keep the guard so a
		// codec added later without run totals can't silently serve).
		valid := true
		row := 0
		for _, r := range cur.Runs() {
			pass, ok := d.accept(m, r.Val)
			if !ok {
				valid = false
				break
			}
			if !pass {
				if kb == nil {
					kb = newKeep(n)
					keep = kb.b
				}
				for x := row; x < row+int(r.N); x++ {
					keep[x] = false
				}
			}
			row += int(r.N)
		}
		cur.Release()
		if valid && row == n {
			residual &^= d.set
			served = true
		}
	}
	return kb, residual, served
}

// predDim is one filter dimension the compressed predicate paths can
// evaluate against encoded segments.
type predDim struct {
	set    trace.ColSet
	accept func(m *trace.Matcher, v int64) (pass, valid bool)
}

// predDims are the filter dimensions compressedKeep can evaluate against
// encoded segments, hoisted to package level so evaluation allocates no
// closures. Start never appears: its segment is a delta chain.
var predDims = [...]predDim{
	{trace.ColLevel, func(m *trace.Matcher, v int64) (bool, bool) { return m.AcceptLevel(uint8(v)), true }},
	{trace.ColOp, func(m *trace.Matcher, v int64) (bool, bool) { return m.AcceptOp(uint8(v)), true }},
	{trace.ColRank, func(m *trace.Matcher, v int64) (bool, bool) {
		if v < 0 || v > math.MaxInt32 {
			return false, false // decode would reject; let it
		}
		return m.AcceptRank(int32(v)), true
	}},
}

// keepBuf boxes a pooled keep bitmap: a bitmap's life ends at row
// selection, and the box travels with it, so the scan's steady state
// allocates nothing per block.
type keepBuf struct{ b []bool }

// keepPool recycles keep bitmaps (with their boxes) between blocks.
var keepPool = sync.Pool{New: func() any { return new(keepBuf) }}

// newKeep returns an all-true keep bitmap for n rows, reusing pooled
// backing when it fits.
func newKeep(n int) *keepBuf {
	kb := keepPool.Get().(*keepBuf)
	if cap(kb.b) < n {
		kb.b = make([]bool, n)
	}
	kb.b = kb.b[:n]
	for i := range kb.b {
		kb.b[i] = true
	}
	return kb
}

// releaseKeep recycles a bitmap returned by compressedKeep (nil is fine).
func releaseKeep(kb *keepBuf) {
	if kb != nil {
		keepPool.Put(kb)
	}
}

// selectRowsResidual applies the residual row predicate after compressed
// predicate dimensions already narrowed keep: only the dimensions still in
// residual are re-evaluated on materialized columns. With keep == nil every
// row passed the served dimensions.
func selectRowsResidual(m *trace.Matcher, cols *trace.Columns, keep []bool, residual trace.ColSet) []int32 {
	sel := make([]int32, 0, cols.N)
	for j := 0; j < cols.N; j++ {
		if keep != nil && !keep[j] {
			continue
		}
		if residual&trace.ColStart != 0 && !m.AcceptStart(cols.Start[j]) {
			continue
		}
		if residual&trace.ColRank != 0 && !m.AcceptRank(cols.Rank[j]) {
			continue
		}
		if residual&trace.ColLevel != 0 && !m.AcceptLevel(cols.Level[j]) {
			continue
		}
		if residual&trace.ColOp != 0 && !m.AcceptOp(cols.Op[j]) {
			continue
		}
		sel = append(sel, int32(j))
	}
	return sel
}

// forStats answers min/max over a chunk's int64 value column straight from
// its FOR segment header, when the chunk still holds its block payload,
// keeps every block row, and the segment is FOR-coded.
func (c *Chunk) forStats(colIdx int) (min, max int64, ok bool) {
	l := c.lazy
	if l == nil {
		return 0, 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bd == nil || l.sel != nil {
		return 0, 0, false
	}
	cur, err := l.bd.SegCursorAt(colIdx)
	if err != nil || cur == nil || !kernelCaps[KMinMax][cur.Codec()] {
		cur.Release()
		return 0, 0, false
	}
	mn, mx, _, ok2 := cur.FORStats()
	cur.Release()
	if !ok2 {
		return 0, 0, false
	}
	return mn, mx, true
}

// ColMinMax returns the min and max of an int64 value column (ColOffset or
// ColSize of the trace column set), chunk-parallel. Chunks whose segment is
// FOR-coded answer from the segment header without unpacking; others
// materialize the column and scan. An empty table returns (0, 0).
func (t *Table) ColMinMax(par int, set trace.ColSet) (min, max int64, err error) {
	colIdx := bits.TrailingZeros64(uint64(set))
	type mm struct {
		min, max int64
		ok       bool
	}
	parts := make([]mm, len(t.chunks))
	errs := make([]error, len(t.chunks))
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		if c.N == 0 {
			return
		}
		if KernelsEnabled() {
			if mn, mx, ok := c.forStats(colIdx); ok {
				t.tickKernel(KMinMax, true)
				parts[k] = mm{mn, mx, true}
				return
			}
		}
		t.tickKernel(KMinMax, false)
		if errs[k] = c.Require(set); errs[k] != nil {
			return
		}
		var vals []int64
		switch set {
		case trace.ColOffset:
			vals = c.Offset
		case trace.ColSize:
			vals = c.Size
		case trace.ColStart:
			vals = c.Start
		case trace.ColEnd:
			vals = c.End
		default:
			errs[k] = errNotValueCol
			return
		}
		mn, mx := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		parts[k] = mm{mn, mx, true}
	})
	first := true
	for k := range parts {
		if errs[k] != nil {
			return 0, 0, errs[k]
		}
		if !parts[k].ok {
			continue
		}
		if first {
			min, max, first = parts[k].min, parts[k].max, false
			continue
		}
		if parts[k].min < min {
			min = parts[k].min
		}
		if parts[k].max > max {
			max = parts[k].max
		}
	}
	return min, max, nil
}
