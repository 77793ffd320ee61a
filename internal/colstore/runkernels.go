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

// captureRuns snapshots the value-run summaries of the run columns from a
// whole-block chunk (sel == nil: chunk rows are exactly the block's rows,
// in order): RLE runs directly, dict segments as coalesced code runs. Runs
// whose values would fail the column's decode validation are dropped, so a
// captured summary always agrees with the materialized column; so are
// summaries denser than one run per four rows, where run iteration stops
// paying for itself and the expanded summary would out-weigh the column.
func (c *Chunk) captureRuns(bd *trace.BlockData) {
	if c.N < 4 {
		return // no summary can pass the one-run-per-four-rows cap
	}
	for ri := 0; ri < numRunCols; ri++ {
		idx := bits.TrailingZeros64(uint64(runColSet(ri)))
		cur, err := bd.SegCursorAt(idx)
		if err != nil || cur == nil {
			continue
		}
		// Density cap pushed into the decode: a summary denser than one
		// run per four rows would be dropped below anyway, so stop
		// materializing the moment it crosses the line.
		runs, ok := cur.AppendRunsMax(nil, c.N/4)
		codec := cur.Codec()
		cur.Release()
		if !ok || len(runs) == 0 {
			continue
		}
		lo, hi := runBounds(ri)
		valid := true
		for _, r := range runs {
			if r.Val < lo || r.Val > hi {
				valid = false
				break
			}
		}
		if valid {
			c.runs[ri] = runs
			c.runCodec[ri] = codec
		}
	}
}

// captureRunsSel is captureRuns for selection-backed chunks: each run
// column's block-level value runs are re-cut against the selection's spans
// (SegCursor.CutRunsSel, the streaming fusion of trace.CutRuns into the
// segment decode), so the captured summary covers exactly the chunk's kept
// rows in kept order. The same decode-validation bounds and density cap
// apply, with the cap measured against the kept row count. It reports
// whether every stable key column ended up with a summary — the condition
// for key spans to serve the analyzer's passes on this filtered chunk.
func (c *Chunk) captureRunsSel(bd *trace.BlockData, spans []trace.SelSpan) bool {
	maxRuns := c.N / 4 // the density cap, pushed down into the cut
	if maxRuns == 0 {
		return false // fewer than 4 kept rows: no summary can pass the cap
	}
	for ri := 0; ri < numRunCols; ri++ {
		idx := bits.TrailingZeros64(uint64(runColSet(ri)))
		cur, err := bd.SegCursorAt(idx)
		if err != nil || cur == nil {
			continue
		}
		// The cut streams fused into the segment decode: the block-level
		// run list never materializes, so a column that is block-dense
		// but selection-sparse (rank after the k-way merge under a narrow
		// window, say) serves at O(kept runs) extra memory, while a
		// column still over the cap abandons the walk at maxRuns+1.
		runs, ok := cur.CutRunsSel(spans, nil, maxRuns)
		codec := cur.Codec()
		cur.Release()
		if !ok || len(runs) == 0 {
			continue
		}
		lo, hi := runBounds(ri)
		valid := true
		for _, r := range runs {
			if r.Val < lo || r.Val > hi {
				valid = false
				break
			}
		}
		if valid {
			c.runs[ri] = runs
			c.runCodec[ri] = codec
		}
	}
	for _, ri := range keyRunCols {
		if c.runs[ri] == nil {
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
