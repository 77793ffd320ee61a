package colstore

// Run-aware scan kernels. The v2.2 trace format RLE-encodes key columns
// that arrive in runs (rank and node after the k-way merge, app and file in
// phase-structured workloads); DecodeRuns surfaces those runs without
// expanding them to rows, and the kernels below consume them directly —
// counting a 16K-row chunk by a handful of run lengths instead of 16K
// comparisons, and skipping Size decodes entirely for chunks whose runs
// rule every row out. Results are exactly equal to the row-iteration
// fallback at any parallelism.

import (
	"math"
	"math/bits"

	"vani/internal/parallel"
	"vani/internal/trace"
)

// numKeyCols is the number of groupable key columns (ColRank..ColFile).
const numKeyCols = 4

// Run-summary column indices. The first numKeyCols entries are the
// groupable key columns, indexed by Col; level follows so key spans can
// hoist the primary-level check out to span boundaries.
const (
	runLevel = numKeyCols + iota
	numRunCols
)

// traceCol returns the trace-layer column set bit for a key column.
func (col Col) traceCol() trace.ColSet {
	switch col {
	case ColRank:
		return trace.ColRank
	case ColNode:
		return trace.ColNode
	case ColApp:
		return trace.ColApp
	case ColFile:
		return trace.ColFile
	}
	return 0
}

// runColSet returns the trace-layer column set bit for a run column index.
func runColSet(ri int) trace.ColSet {
	if ri == runLevel {
		return trace.ColLevel
	}
	return Col(ri).traceCol()
}

// runBounds returns the value range outside which a run column's decode
// validation (or integer conversion) would disagree with the stored value.
func runBounds(ri int) (lo, hi int64) {
	switch ri {
	case runLevel:
		return 0, math.MaxUint8 // decode truncates with uint8(v)
	case int(ColRank), int(ColNode):
		return 0, math.MaxInt32 // decode rejects out-of-range values
	}
	return math.MinInt32, math.MaxInt32
}

// runScratch is one scan worker's run-capture buffers, one per run column,
// reused across every chunk the worker builds so a column that fails the
// capture leaves no garbage behind.
type runScratch [numRunCols][]trace.Run

// captureRuns snapshots the value-run summaries of the key run columns from
// a v2.2 block: RLE runs directly, dict and FOR segments as coalesced value
// runs. spans == nil means a whole-block chunk (chunk rows are exactly the
// block's rows, in order); otherwise each column's block runs are re-cut
// against the selection's spans (SegCursor.CutRunsSel, the streaming fusion
// of trace.CutRuns into the segment decode), so the summary covers exactly
// the chunk's kept rows in kept order. Only key spans read a summary, and
// they need all five, so capture is all or nothing: the columns are walked
// in keyRunCols order — rank first, the column most often over the cap —
// and the first one that is denser than one run per four rows, or holds a
// value its decode validation would reject, ends the capture with no
// summary kept. Each column is walked once into the worker's scratch; only
// when all five pass are they copied out, into one exact-size slice. It
// reports whether the chunk got its summaries.
func (c *Chunk) captureRuns(bd *trace.BlockData, spans []trace.SelSpan, s *runScratch) bool {
	maxRuns := c.N / 4 // the density cap, pushed down into the decode
	if maxRuns == 0 {
		return false // fewer than 4 rows: no summary can pass the cap
	}
	var codecs [numRunCols]uint8
	total := 0
	for _, ri := range keyRunCols {
		cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(runColSet(ri))))
		if err != nil || cur == nil {
			return false
		}
		var runs []trace.Run
		var ok bool
		if spans == nil {
			runs, ok = cur.AppendRunsMax(s[ri][:0], maxRuns)
		} else {
			runs, ok = cur.CutRunsSel(spans, s[ri][:0], maxRuns)
		}
		codecs[ri] = cur.Codec()
		cur.Release()
		if cap(runs) > cap(s[ri]) {
			s[ri] = runs[:0] // keep the grown buffer for the next chunk
		}
		if !ok || len(runs) == 0 || !runsInBounds(ri, runs) {
			return false
		}
		s[ri] = runs
		total += len(runs)
	}
	all := make([]trace.Run, total)
	off := 0
	for _, ri := range keyRunCols {
		n := copy(all[off:], s[ri])
		c.runs[ri] = all[off : off+n : off+n]
		c.runCodec[ri] = codecs[ri]
		off += n
	}
	return true
}

// runsInBounds reports whether every run value passes run column ri's
// decode validation, so a captured summary always agrees with the
// materialized column.
func runsInBounds(ri int, runs []trace.Run) bool {
	lo, hi := runBounds(ri)
	for _, r := range runs {
		if r.Val < lo || r.Val > hi {
			return false
		}
	}
	return true
}

// HasRuns reports whether the chunk carries a run summary for the key
// column (observability for tests and benchmarks).
func (c *Chunk) HasRuns(col Col) bool { return c.runs[col] != nil }

// runsMatching counts the rows of c whose key column equals val using the
// run summary. Valid only when c.runs[col] != nil.
func (c *Chunk) runsMatching(col Col, val int32) int64 {
	var n int64
	for _, r := range c.runs[col] {
		if int32(r.Val) == val {
			n += int64(r.N)
		}
	}
	return n
}

// CountEq counts rows whose key column equals val, chunk-parallel. Chunks
// carrying a run summary are counted from run lengths without materializing
// (or iterating) the column.
func (t *Table) CountEq(par int, col Col, val int32) (int64, error) {
	parts := make([]int64, len(t.chunks))
	errs := make([]error, len(t.chunks))
	set := col.traceCol()
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		if KernelsEnabled() && c.runUsable(KCountEq, int(col)) {
			t.tickKernel(KCountEq, true)
			parts[k] = c.runsMatching(col, val)
			return
		}
		t.tickKernel(KCountEq, false)
		if errs[k] = c.Require(set); errs[k] != nil {
			return
		}
		var n int64
		for _, v := range c.col(col) {
			if v == val {
				n++
			}
		}
		parts[k] = n
	})
	var n int64
	for k := range parts {
		if errs[k] != nil {
			return 0, errs[k]
		}
		n += parts[k]
	}
	return n, nil
}

// SumSizeEq sums the Size column over rows whose key column equals val,
// chunk-parallel. With a run summary the key column is never iterated: only
// the Size spans of matching runs are read, and chunks with no matching run
// skip the Size decode entirely.
func (t *Table) SumSizeEq(par int, col Col, val int32) (int64, error) {
	parts := make([]int64, len(t.chunks))
	errs := make([]error, len(t.chunks))
	set := col.traceCol()
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		if runs := c.runs[col]; runs != nil && KernelsEnabled() && c.runUsable(KSumEq, int(col)) {
			t.tickKernel(KSumEq, true)
			if c.runsMatching(col, val) == 0 {
				return // no matching rows: Size never decoded
			}
			if errs[k] = c.Require(trace.ColSize); errs[k] != nil {
				return
			}
			var sum int64
			row := 0
			for _, r := range runs {
				if int32(r.Val) == val {
					for _, s := range c.Size[row : row+int(r.N)] {
						sum += s
					}
				}
				row += int(r.N)
			}
			parts[k] = sum
			return
		}
		t.tickKernel(KSumEq, false)
		if errs[k] = c.Require(set | trace.ColSize); errs[k] != nil {
			return
		}
		keys := c.col(col)
		var sum int64
		for j := 0; j < c.N; j++ {
			if keys[j] == val {
				sum += c.Size[j]
			}
		}
		parts[k] = sum
	})
	var sum int64
	for k := range parts {
		if errs[k] != nil {
			return 0, errs[k]
		}
		sum += parts[k]
	}
	return sum, nil
}

// ValueHist builds the value→row-count histogram of a key column,
// chunk-parallel. Chunks carrying a run summary contribute one increment
// per run instead of one per row.
func (t *Table) ValueHist(par int, col Col) (map[int32]int64, error) {
	parts := make([]map[int32]int64, len(t.chunks))
	errs := make([]error, len(t.chunks))
	set := col.traceCol()
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		h := make(map[int32]int64)
		if KernelsEnabled() && c.runUsable(KHist, int(col)) {
			t.tickKernel(KHist, true)
			for _, r := range c.runs[col] {
				h[int32(r.Val)] += int64(r.N)
			}
			parts[k] = h
			return
		}
		t.tickKernel(KHist, false)
		if errs[k] = c.Require(set); errs[k] != nil {
			return
		}
		for _, v := range c.col(col) {
			h[v]++
		}
		parts[k] = h
	})
	out := make(map[int32]int64)
	for k := range parts {
		if errs[k] != nil {
			return nil, errs[k]
		}
		for v, n := range parts[k] {
			out[v] += n
		}
	}
	return out, nil
}
