package colstore

// The scan planner's middle layer: an analysis declares the columns its
// kernels touch and the predicates it can push (ScanSpec); FromBlocksSpec
// drives that plan down into the VANITRC2 block index — skipping whole
// blocks the footer statistics rule out, decoding only the column segments
// the plan names, and applying the residual row predicate exactly — and
// builds a table whose chunks materialize further columns lazily, the first
// time a kernel asks. ScanStats counts what the plan saved so pruning
// effectiveness is observable, not inferred.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vani/internal/parallel"
	"vani/internal/trace"
)

// ScanSpec is the scan plan an analysis declares before touching data: the
// columns its kernels will read up front and the predicates the reader may
// push down. Cols == 0 defers every column — chunks hold only the block's
// undecoded payload until a kernel Requires a column. The zero value is a
// fully lazy, unfiltered scan.
type ScanSpec struct {
	// Cols are the columns to materialize eagerly during the scan (the
	// filter's own columns are always decoded). 0 = decode on demand.
	Cols trace.ColSet
	// Filter is pushed down to the block index (pruning) and applied
	// per-row afterwards, so the resulting table is row-identical to
	// filtering a full decode in memory.
	Filter trace.Filter
}

// ScanStats counts what a planned scan actually did. Counters are atomic:
// one ScanStats is shared by the parallel scan workers and by later lazy
// materializations of the resulting table's chunks.
type ScanStats struct {
	BlocksTotal  atomic.Int64 // blocks in the log
	BlocksPruned atomic.Int64 // blocks skipped via footer statistics
	RowsTotal    atomic.Int64 // rows in blocks that were read
	RowsKept     atomic.Int64 // rows surviving the residual filter
	PayloadBytes atomic.Int64 // unwrapped payload bytes of blocks read
	DecodedBytes atomic.Int64 // payload bytes actually varint-decoded

	// Segs counts the v2.2 column segments decoded, by segment codec id —
	// the codec mix the cost model actually chose on this log. All zero for
	// v1/v2.0/v2.1 input.
	Segs [trace.NumSegCodecs]atomic.Int64

	// KernelServed and KernelFallback count, per kernel operation, the
	// requests a compressed-domain kernel answered from encoded segments vs
	// fell back to materialized row iteration — the observable split between
	// the two execution paths.
	KernelServed   [NumKernelOps]atomic.Int64
	KernelFallback [NumKernelOps]atomic.Int64

	// RunIsectServed and RunIsectFallback count blocks where a
	// multi-dimension filter was eligible for run-intersection selection
	// (every constrained dimension is level/op/rank) and the intersection
	// served vs fell back because some dimension lacked run structure.
	RunIsectServed   atomic.Int64
	RunIsectFallback atomic.Int64

	// GroupFilteredServed and GroupFilteredFallback count selection-backed
	// chunks whose re-cut run summaries covered every stable key column —
	// key spans serve the filtered chunk — vs filtered chunks whose re-cut
	// came up short (density cap, structureless segments) and stay on the
	// row path.
	GroupFilteredServed   atomic.Int64
	GroupFilteredFallback atomic.Int64
}

// tickKernel records one kernel request as served or fallback. Nil-safe.
func (s *ScanStats) tickKernel(op KernelOp, served bool) {
	if s == nil {
		return
	}
	if served {
		s.KernelServed[op].Add(1)
	} else {
		s.KernelFallback[op].Add(1)
	}
}

// ScanCounters is a plain-value snapshot of ScanStats, suitable for
// embedding in reports and timings.
type ScanCounters struct {
	BlocksTotal  int64
	BlocksPruned int64
	RowsTotal    int64
	RowsKept     int64
	PayloadBytes int64
	DecodedBytes int64

	// Decoded v2.2 column segments by codec (the log's codec mix).
	SegRaw  int64
	SegRLE  int64
	SegDict int64
	SegFOR  int64

	// Per-kernel served/fallback request counts, indexed by KernelOp, plus
	// their totals.
	KernelServed    [NumKernelOps]int64
	KernelFallback  [NumKernelOps]int64
	KernelsServed   int64
	KernelsFallback int64

	// Key-span split: the analyzer's per-chunk key-span requests
	// (KernelServed/Fallback for KKeySpan) served from run summaries vs
	// answered by row iteration.
	GroupServed   int64
	GroupFallback int64

	// Multi-dimension run-intersection selection: blocks served vs eligible
	// blocks that fell back to the keep-bitmap path.
	RunIsectServed   int64
	RunIsectFallback int64

	// Selection-backed chunks where re-cut run summaries let key spans
	// serve vs filtered chunks left on the row path.
	GroupFilteredServed   int64
	GroupFilteredFallback int64

	// Run-aware distribution accumulators: chunk passes whose timeline and
	// size-histogram accumulation batched over span structure vs passes
	// that bucketed per row (KernelServed/Fallback for KTimelineAdd and
	// KHistAdd, summed).
	TLServed   int64
	TLFallback int64
}

// Snapshot reads every counter.
func (s *ScanStats) Snapshot() ScanCounters {
	c := ScanCounters{
		BlocksTotal:  s.BlocksTotal.Load(),
		BlocksPruned: s.BlocksPruned.Load(),
		RowsTotal:    s.RowsTotal.Load(),
		RowsKept:     s.RowsKept.Load(),
		PayloadBytes: s.PayloadBytes.Load(),
		DecodedBytes: s.DecodedBytes.Load(),
		SegRaw:       s.Segs[0].Load(),
		SegRLE:       s.Segs[1].Load(),
		SegDict:      s.Segs[2].Load(),
		SegFOR:       s.Segs[3].Load(),
	}
	for op := KernelOp(0); op < NumKernelOps; op++ {
		c.KernelServed[op] = s.KernelServed[op].Load()
		c.KernelFallback[op] = s.KernelFallback[op].Load()
		c.KernelsServed += c.KernelServed[op]
		c.KernelsFallback += c.KernelFallback[op]
	}
	c.GroupServed = c.KernelServed[KKeySpan]
	c.GroupFallback = c.KernelFallback[KKeySpan]
	c.RunIsectServed = s.RunIsectServed.Load()
	c.RunIsectFallback = s.RunIsectFallback.Load()
	c.GroupFilteredServed = s.GroupFilteredServed.Load()
	c.GroupFilteredFallback = s.GroupFilteredFallback.Load()
	c.TLServed = c.KernelServed[KTimelineAdd] + c.KernelServed[KHistAdd]
	c.TLFallback = c.KernelFallback[KTimelineAdd] + c.KernelFallback[KHistAdd]
	return c
}

// countSegs tallies the codec of every decoded column segment of set into
// the codec-mix counters. A no-op for blocks without v2.2 codec metadata.
func (s *ScanStats) countSegs(bd *trace.BlockData, set trace.ColSet) {
	for col := 0; col < trace.NumCols; col++ {
		if set&(trace.ColSet(1)<<col) == 0 {
			continue
		}
		if id, ok := bd.SegCodec(col); ok {
			s.Segs[id].Add(1)
		}
	}
}

// lazySrc is the undecoded remainder of a chunk built by FromBlocksSpec:
// the block payload, the row selection the residual filter chose, and the
// set of columns already materialized. The mutex serializes Require calls
// so concurrent kernels may demand columns of the same chunk safely.
type lazySrc struct {
	mu    sync.Mutex
	bd    *trace.BlockData
	sel   []int32 // block row indices kept by the filter; nil = all rows
	have  trace.ColSet
	stats *ScanStats
}

// Require materializes the requested columns of the chunk, decoding any
// missing segments from the retained block payload. It is a no-op for
// eagerly built chunks and for columns already present. Safe for concurrent
// use.
func (c *Chunk) Require(want trace.ColSet) error {
	l := c.lazy
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	missing := want &^ l.have
	if missing == 0 {
		return nil
	}
	var cols trace.Columns
	decoded, err := l.bd.Decode(missing, &cols)
	if err != nil {
		return err
	}
	got := missing
	if !l.bd.Projectable() {
		got = trace.AllCols &^ l.have // fallback decode fills everything
	}
	c.adopt(&cols, l.sel, got)
	l.have |= got
	if l.stats != nil && decoded > 0 {
		// decoded == 0 means a shared-cache memo hit: the block's columns
		// were copied out, not re-decoded, so the scan did no decode work.
		l.stats.DecodedBytes.Add(decoded)
		l.stats.countSegs(l.bd, got)
	}
	if l.have == trace.AllCols {
		l.bd = nil // payload no longer needed; let it go
	}
	return nil
}

// Materialize decodes the given columns for every chunk, fanning out over
// up to par workers. Eager tables return immediately.
func (t *Table) Materialize(par int, want trace.ColSet) error {
	return t.MaterializeContext(context.Background(), par, want)
}

// MaterializeContext is Materialize with cancellation: each chunk worker
// observes ctx before decoding, so a canceled caller stops mid-table.
func (t *Table) MaterializeContext(ctx context.Context, par int, want trace.ColSet) error {
	errs := make([]error, len(t.chunks))
	parallel.ForEach(par, len(t.chunks), func(k int) {
		if errs[k] = ctx.Err(); errs[k] != nil {
			return
		}
		errs[k] = t.chunks[k].Require(want)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gather selects rows of src by block row index.
func gather[T any](src []T, sel []int32) []T {
	dst := make([]T, len(sel))
	for i, j := range sel {
		dst[i] = src[j]
	}
	return dst
}

// adopt installs decoded block columns into the chunk: a direct slice
// adoption when the chunk keeps every block row (sel == nil), a gather by
// the filter's row selection otherwise. Only columns in set are touched.
func (c *Chunk) adopt(cols *trace.Columns, sel []int32, set trace.ColSet) {
	if sel == nil {
		if set&trace.ColLevel != 0 {
			c.Level = cols.Level[:c.N]
		}
		if set&trace.ColOp != 0 {
			c.Op = cols.Op[:c.N]
		}
		if set&trace.ColLib != 0 {
			c.Lib = cols.Lib[:c.N]
		}
		if set&trace.ColRank != 0 {
			c.Rank = cols.Rank[:c.N]
		}
		if set&trace.ColNode != 0 {
			c.Node = cols.Node[:c.N]
		}
		if set&trace.ColApp != 0 {
			c.App = cols.App[:c.N]
		}
		if set&trace.ColFile != 0 {
			c.File = cols.File[:c.N]
		}
		if set&trace.ColOffset != 0 {
			c.Offset = cols.Offset[:c.N]
		}
		if set&trace.ColSize != 0 {
			c.Size = cols.Size[:c.N]
		}
		if set&trace.ColStart != 0 {
			c.Start = cols.Start[:c.N]
		}
		if set&trace.ColEnd != 0 {
			c.End = cols.End[:c.N]
		}
		return
	}
	if set&trace.ColLevel != 0 {
		c.Level = gather(cols.Level, sel)
	}
	if set&trace.ColOp != 0 {
		c.Op = gather(cols.Op, sel)
	}
	if set&trace.ColLib != 0 {
		c.Lib = gather(cols.Lib, sel)
	}
	if set&trace.ColRank != 0 {
		c.Rank = gather(cols.Rank, sel)
	}
	if set&trace.ColNode != 0 {
		c.Node = gather(cols.Node, sel)
	}
	if set&trace.ColApp != 0 {
		c.App = gather(cols.App, sel)
	}
	if set&trace.ColFile != 0 {
		c.File = gather(cols.File, sel)
	}
	if set&trace.ColOffset != 0 {
		c.Offset = gather(cols.Offset, sel)
	}
	if set&trace.ColSize != 0 {
		c.Size = gather(cols.Size, sel)
	}
	if set&trace.ColStart != 0 {
		c.Start = gather(cols.Start, sel)
	}
	if set&trace.ColEnd != 0 {
		c.End = gather(cols.End, sel)
	}
}

// FromBlocksSpec executes a scan plan against a VANITRC2 block log: blocks
// the footer statistics rule out are never read, read blocks evaluate the
// pushed-down predicate in the compressed domain where the kernel registry
// allows and decode only the residual filter columns plus spec.Cols, and
// surviving rows form a table whose remaining columns materialize lazily
// from the retained payloads. The resulting table is row-identical — same
// rows, same order — to decoding everything and filtering in memory, at
// any par. The source is any trace.BlockSource — a BlockReader over a
// file, or a shared block cache. stats may be nil.
func FromBlocksSpec(src trace.BlockSource, par int, spec ScanSpec, stats *ScanStats) (*Table, error) {
	return FromBlocksSpecContext(context.Background(), src, par, spec, stats)
}

// FromBlocksSpecContext is FromBlocksSpec with cancellation: every block
// worker observes ctx before reading, so a canceled or timed-out caller
// aborts the scan mid-log instead of decoding the remaining blocks. The
// returned error is ctx.Err() when the abort was a cancellation.
func FromBlocksSpecContext(ctx context.Context, src trace.BlockSource, par int, spec ScanSpec, stats *ScanStats) (*Table, error) {
	if stats == nil {
		stats = &ScanStats{}
	}
	m := spec.Filter.NewMatcher()
	nb := src.NumBlocks()
	stats.BlocksTotal.Add(int64(nb))
	if src.BlockEvents() != ChunkRows {
		return fromBlocksSpecSlow(ctx, src, spec, m, stats)
	}
	fcols := spec.Filter.Cols()
	chunks := make([]*Chunk, nb)
	errs := make([]error, nb)
	scratch := make([]runScratch, parallel.Workers(par, nb))
	parallel.ForEachWorker(par, nb, func(w, k int) {
		if errs[k] = ctx.Err(); errs[k] != nil {
			return
		}
		bi := src.BlockAt(k)
		if m.SkipBlock(bi) {
			stats.BlocksPruned.Add(1)
			return
		}
		// The block's index entry can prove dimensions pass-all for every
		// row it holds (a containing time window, most usefully), so the
		// constrained set shrinks per block: a window+rank filter becomes a
		// pure rank filter on interior blocks — compressed-selection
		// territory — and a pure-window filter keeps interior blocks whole,
		// run summaries intact, without touching a row.
		need := m.NeedColsBlock(bi)
		bd, err := src.ReadBlock(k)
		if err != nil {
			errs[k] = err
			return
		}
		stats.PayloadBytes.Add(int64(bd.PayloadBytes()))
		stats.RowsTotal.Add(int64(bd.Count()))
		if need == 0 {
			ck := &Chunk{N: bd.Count()}
			lz := &lazySrc{bd: bd, stats: stats}
			if spec.Cols != 0 {
				var cols trace.Columns
				decoded, err := bd.Decode(spec.Cols, &cols)
				if err != nil {
					errs[k] = err
					return
				}
				lz.have = spec.Cols
				if !bd.Projectable() {
					lz.have = trace.AllCols
				}
				if decoded > 0 { // 0 = shared-cache memo hit, nothing decoded
					stats.DecodedBytes.Add(decoded)
					stats.countSegs(bd, lz.have)
				}
				ck.adopt(&cols, nil, lz.have)
			}
			ck.captureRuns(bd, nil, &scratch[w])
			if lz.have != trace.AllCols {
				ck.lazy = lz
			}
			stats.RowsKept.Add(int64(ck.N))
			chunks[k] = ck
			return
		}
		// Compressed-domain predicate: a single-dimension filter over a
		// run-structured segment selects rows directly from the runs — at
		// exact final size, with the filter column itself synthesized from
		// the runs so its segment is never decoded; otherwise the
		// dimensions the kernel registry can serve narrow a keep bitmap
		// and leave the residual set. Either way the decode shrinks to
		// residual columns only.
		sel, syn, selAll, direct := compressedSel(m, need, bd)
		var selSpans []trace.SelSpan
		if !direct {
			// Multi-dimension filters intersect run summaries across columns
			// and emit the selection directly, skipping the keep bitmap. The
			// intersection walk also hands back the selection's run structure
			// (its contiguous kept spans), so the re-cut below never has to
			// rediscover it from the dense vector.
			if msel, mspans, mall, mok, eligible := compressedSelMulti(m, need, bd); eligible {
				if mok {
					sel, selSpans, selAll, direct = msel, mspans, mall, true
					stats.RunIsectServed.Add(1)
				} else {
					stats.RunIsectFallback.Add(1)
				}
			}
		}
		var kb *keepBuf
		var residual trace.ColSet
		served := direct
		if !direct {
			kb, residual, served = compressedKeep(m, need, bd)
			if served && kb == nil && residual == 0 {
				// Every constrained dimension passed whole-block: keep the
				// block outright instead of filling a full selection vector.
				selAll, direct = true, true
			}
		}
		stats.tickKernel(KPredicate, served)
		want := fcols | spec.Cols
		if served {
			want = residual | spec.Cols
		}
		var cols trace.Columns
		decoded, err := bd.Decode(want, &cols)
		if err != nil {
			errs[k] = err
			return
		}
		have := want
		if !bd.Projectable() {
			have = trace.AllCols
		}
		if decoded > 0 {
			stats.DecodedBytes.Add(decoded)
			stats.countSegs(bd, have)
		}
		if !direct {
			if served {
				var keep []bool
				if kb != nil {
					keep = kb.b
				}
				sel = selectRowsResidual(m, &cols, keep, residual)
			} else {
				sel = selectRows(m, &cols, have)
			}
			releaseKeep(kb)
		}
		if !selAll && len(sel) == cols.N {
			selAll = true
		}
		kept := len(sel)
		if selAll {
			kept, sel = bd.Count(), nil // whole block kept: adopt without copying
		}
		stats.RowsKept.Add(int64(kept))
		if kept == 0 {
			return // every row filtered out; chunk dropped entirely
		}
		ck := &Chunk{N: kept}
		ck.adopt(&cols, sel, have)
		if sel != nil && syn.set != 0 {
			syn.install(ck)
			have |= syn.set
		}
		if sel == nil {
			ck.captureRuns(bd, nil, &scratch[w])
		} else if KernelsEnabled() {
			// Selection-backed chunk: re-cut the block's value runs against
			// the selection's spans so key spans serve filtered chunks too.
			// Selections not born run-structured (residual row predicates,
			// keep bitmaps) coalesce here — they are still runs of kept
			// rows, just spelled out one index at a time.
			if selSpans == nil {
				selSpans = trace.AppendSelSpans(sel, nil)
			}
			if ck.captureRuns(bd, selSpans, &scratch[w]) {
				stats.GroupFilteredServed.Add(1)
			} else {
				stats.GroupFilteredFallback.Add(1)
			}
		}
		if have != trace.AllCols {
			ck.lazy = &lazySrc{bd: bd, sel: sel, have: have, stats: stats}
		}
		chunks[k] = ck
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	t := &Table{stats: stats}
	for _, ck := range chunks {
		if ck == nil {
			continue
		}
		ck.Base = t.n
		t.n += ck.N
		t.chunks = append(t.chunks, ck)
	}
	t.uniform = true
	for k, ck := range t.chunks {
		if k < len(t.chunks)-1 && ck.N != ChunkRows {
			t.uniform = false
			break
		}
	}
	return t, nil
}

// selectRows applies the residual row predicate over the decoded filter
// columns. Columns the filter does not constrain may be undecoded; their
// predicates are trivially true, so zero stands in.
func selectRows(m *trace.Matcher, cols *trace.Columns, have trace.ColSet) []int32 {
	sel := make([]int32, 0, cols.N)
	for j := 0; j < cols.N; j++ {
		var level, op uint8
		var rank int32
		var start int64
		if have&trace.ColLevel != 0 {
			level = cols.Level[j]
		}
		if have&trace.ColOp != 0 {
			op = cols.Op[j]
		}
		if have&trace.ColRank != 0 {
			rank = cols.Rank[j]
		}
		if have&trace.ColStart != 0 {
			start = cols.Start[j]
		}
		if m.Match(level, op, rank, start) {
			sel = append(sel, int32(j))
		}
	}
	return sel
}

// fromBlocksSpecSlow serves non-default block geometries: blocks still
// prune from the index, but surviving events re-chunk through a Builder.
func fromBlocksSpecSlow(ctx context.Context, src trace.BlockSource, spec ScanSpec, m *trace.Matcher, stats *ScanStats) (*Table, error) {
	b := NewBuilder()
	nb := src.NumBlocks()
	for k := 0; k < nb; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if m.SkipBlock(src.BlockAt(k)) {
			stats.BlocksPruned.Add(1)
			continue
		}
		bd, err := src.ReadBlock(k)
		if err != nil {
			return nil, err
		}
		stats.PayloadBytes.Add(int64(bd.PayloadBytes()))
		stats.RowsTotal.Add(int64(bd.Count()))
		var cols trace.Columns
		decoded, err := bd.Decode(trace.AllCols, &cols)
		if err != nil {
			return nil, err
		}
		if decoded > 0 {
			stats.DecodedBytes.Add(decoded)
			stats.countSegs(bd, trace.AllCols)
		}
		for j := 0; j < cols.N; j++ {
			if !m.Match(cols.Level[j], cols.Op[j], cols.Rank[j], cols.Start[j]) {
				continue
			}
			ev := trace.Event{
				Level:  trace.Level(cols.Level[j]),
				Op:     trace.Op(cols.Op[j]),
				Lib:    trace.Lib(cols.Lib[j]),
				Rank:   cols.Rank[j],
				Node:   cols.Node[j],
				App:    cols.App[j],
				File:   cols.File[j],
				Offset: cols.Offset[j],
				Size:   cols.Size[j],
				Start:  time.Duration(cols.Start[j]),
				End:    time.Duration(cols.End[j]),
			}
			b.Append(&ev)
			stats.RowsKept.Add(1)
		}
	}
	t := b.Finish()
	t.stats = stats
	return t, nil
}
