package trace

// Selection re-cut: the bridge between a block's value-run summaries and a
// filtered chunk's rows. A scan that keeps only some block rows used to
// lose all run structure — the selection vector names kept rows one by
// one, and the block-level runs describe rows the chunk no longer has. But
// a selection produced by predicate evaluation is itself run-structured
// (predicates flip at run boundaries of the filter columns), so the kept
// rows form a handful of contiguous spans. CutRuns intersects a column's
// block runs with those spans, yielding the value runs of exactly the kept
// rows in kept order — the summary the analyzer's key spans need to serve
// selection-backed chunks.

// SelSpan is one maximal run of consecutive kept block rows in a
// selection: block rows [Lo, Lo+N), all kept, in order.
type SelSpan struct {
	Lo int32
	N  int32
}

// AppendSelSpans coalesces a sorted selection vector (ascending block row
// indices, as every selection path emits) into contiguous spans, appending
// to dst. An empty selection appends nothing.
func AppendSelSpans(sel []int32, dst []SelSpan) []SelSpan {
	for i := 0; i < len(sel); {
		j := i + 1
		for j < len(sel) && sel[j] == sel[j-1]+1 {
			j++
		}
		dst = append(dst, SelSpan{Lo: sel[i], N: int32(j - i)})
		i = j
	}
	return dst
}

// CutRuns re-cuts a column's block-level value runs against a selection's
// spans: the result is the value-run summary of the kept rows, in kept-row
// order, with adjacent equal values coalesced (also across span gaps, so a
// selection that drops the middle of one long run still yields one run).
// runs must tile the block's rows in order and spans must be disjoint and
// ascending — both hold by construction for SegCursor.AppendRuns output
// and AppendSelSpans/compressed-selection output. O(len(runs)+len(spans)).
//
// max > 0 bounds the output: a cut that would produce more than max runs
// returns nil instead, abandoning the walk as soon as the bound is passed.
// Callers with a density cap (a summary denser than one run per K rows is
// refused anyway) push it down here, so a doomed cut of a high-churn
// column never materializes — and when max is set and dst is nil, the
// bounded count sizes the output exactly, one allocation with no append
// growth and no retained slack. max <= 0 means unbounded.
func CutRuns(runs []Run, spans []SelSpan, dst []Run, max int) []Run {
	if max > 0 {
		n := countCutRuns(runs, spans, max)
		if n > max {
			return nil
		}
		if dst == nil {
			if n == 0 {
				return nil
			}
			dst = make([]Run, 0, n)
		}
	}
	ri := 0
	runStart := int32(0) // block row where runs[ri] begins
	for _, sp := range spans {
		lo, hi := sp.Lo, sp.Lo+sp.N
		if hi <= lo {
			continue
		}
		// Skip runs that end at or before the span. The next span starts
		// later, so this advance never has to back up.
		for ri < len(runs) && runStart+runs[ri].N <= lo {
			runStart += runs[ri].N
			ri++
		}
		// Emit the overlap of each run with the span. The last overlapping
		// run may extend past hi and into the next span, so ri/runStart stay
		// put and the skip loop above re-finds it.
		r, rs := ri, runStart
		for r < len(runs) && rs < hi {
			end := rs + runs[r].N
			a, b := lo, hi
			if rs > a {
				a = rs
			}
			if end < b {
				b = end
			}
			if b > a {
				if n := len(dst); n > 0 && dst[n-1].Val == runs[r].Val {
					dst[n-1].N += b - a
				} else {
					dst = append(dst, Run{Val: runs[r].Val, N: b - a})
				}
			}
			rs = end
			r++
		}
	}
	return dst
}

// countCutRuns walks the same intersection as CutRuns and returns the
// number of coalesced output runs without materializing any, giving up at
// max+1 — the counting half of the bounded cut.
func countCutRuns(runs []Run, spans []SelSpan, max int) int {
	cnt := 0
	var lastVal int64
	ri := 0
	runStart := int32(0)
	for _, sp := range spans {
		lo, hi := sp.Lo, sp.Lo+sp.N
		if hi <= lo {
			continue
		}
		for ri < len(runs) && runStart+runs[ri].N <= lo {
			runStart += runs[ri].N
			ri++
		}
		r, rs := ri, runStart
		for r < len(runs) && rs < hi {
			end := rs + runs[r].N
			a, b := lo, hi
			if rs > a {
				a = rs
			}
			if end < b {
				b = end
			}
			if b > a && (cnt == 0 || runs[r].Val != lastVal) {
				if cnt++; cnt > max {
					return cnt
				}
				lastVal = runs[r].Val
			}
			rs = end
			r++
		}
	}
	return cnt
}
