package core

import (
	"fmt"
	"math/bits"
	"time"
	"unsafe"

	"vani/internal/colstore"
	"vani/internal/parallel"
	"vani/internal/stats"
	"vani/internal/trace"
)

// Passes 1 and 2: the fused characterization scan over dense accumulators.
// The key columns store the trace's interned ids and the header states
// their ranges — len(Apps) applications, len(Files) files plus -1 ("no
// file"), Meta.Ranks ranks — so every accumulator the scan keys on an
// (app, file) stream, a file or a rank is a flat array indexed by id, sized
// from the header before a row is read. Ranks are process ids, and a job's
// processes may outnumber its slots (montage-pegasus runs every task as its
// own process), so the rank range is Meta.Ranks extended to the largest
// rank the rows name. Pass 1 checks every row's ids: an app or file outside
// the header's tables, or a rank beyond what maxDenseBytes admits, fails
// with trace.ErrBadFormat instead of indexing out of range. A chunk rides
// key spans — runs of the five stable key columns, op dispatched per row —
// when its run summaries allow, and iterates rows otherwise; both feed the
// same accumulators. Partials are kept per worker, not per chunk, so memory
// is workers × cardinality; every merge is an integer sum, min/max or set
// union, so the result is bit-identical at any parallelism. Only the row
// selections pass 3 reads (chunkSel) stay per chunk.

// maxDenseBytes bounds one worker's dense accumulators. It admits every
// machine internal/cluster models at full allocation — a whole-Summit job
// (4,608 nodes × 42 ranks = 193,536 ranks) needs about 10 MB — and rejects
// absurd header claims with an error before anything is allocated.
const maxDenseBytes = 1 << 26

// dims are the id ranges the accumulators are sized by.
type dims struct {
	apps, files int
	fileSlots   int // files+1: slot 0 is file -1
	ranks       int // header's Meta.Ranks; after pass 1, 1 + the largest rank if more
	maxRanks    int // the rank range maxDenseBytes admits
}

// headerDims reads the id ranges off the trace header and derives the rank
// range one worker's maxDenseBytes admits next to the (app, file) level
// matrix and the per-file pointers: each rank costs a rankAcc plus a bit
// per app.
func headerDims(hdr *trace.Trace) (dims, error) {
	// An empty app table still admits app 0, the zero value of an event's
	// App: such traces name one unnamed application (AppName renders "?").
	d := dims{apps: max(len(hdr.Apps), 1), files: len(hdr.Files), fileSlots: len(hdr.Files) + 1, ranks: hdr.Meta.Ranks}
	// Floating point, so a hostile header cannot overflow the estimate.
	fixed := float64(d.apps)*2*float64(d.fileSlots) + 8*float64(d.fileSlots)
	perRank := float64(unsafe.Sizeof(rankAcc{})) + float64(d.apps)/8
	d.maxRanks = int(max(maxDenseBytes-fixed, 0) / perRank)
	if fixed > maxDenseBytes || d.ranks < 0 || d.ranks > d.maxRanks {
		return d, fmt.Errorf("%w: header declares %d apps, %d files and %d ranks; "+
			"the dense accumulators admit %d ranks at that size", trace.ErrBadFormat, d.apps, d.files, d.ranks, d.maxRanks)
	}
	return d, nil
}

// badID reports whether an event's ids fall outside the admitted ranges.
func (d *dims) badID(app, file, rank int32) bool {
	return uint32(app) >= uint32(d.apps) || uint32(file+1) >= uint32(d.fileSlots) ||
		uint32(rank) >= uint32(d.maxRanks)
}

func (d *dims) idErr(app, file, rank int32) error {
	return fmt.Errorf("%w: event names app %d, file %d, rank %d; the header declares %d apps and %d files, "+
		"and the dense accumulators admit %d ranks", trace.ErrBadFormat, app, file, rank, d.apps, d.files, d.maxRanks)
}

// pass1 is one worker's partial of the level-resolution scan: the
// app-facing level per (application, file) stream — the highest
// abstraction through which that application touched that file, so
// counting there avoids double-counting one logical operation across
// layers while keeping POSIX-only side traffic visible — plus the global
// facts (job runtime, GPU usage, per-app rank sets, the largest rank).
type pass1 struct {
	levels  []uint16   // [app*fileSlots + file+1]: primary level+1, 0 = no I/O
	ranks   [][]uint64 // per app: bitset of ranks that emitted any event
	maxRank int32
	maxEnd  int64
	gpu     bool
}

func newPass1(d *dims) *pass1 {
	return &pass1{
		levels:  make([]uint16, d.apps*d.fileSlots),
		ranks:   make([][]uint64, d.apps),
		maxRank: -1,
	}
}

// setBit sets bit i of *bs, growing it to at least words words first.
func setBit(bs *[]uint64, i int32, words int) {
	if w := int(i>>6) + 1; w > len(*bs) {
		*bs = append(*bs, make([]uint64, max(w, words)-len(*bs))...)
	}
	(*bs)[i>>6] |= 1 << (i & 63)
}

// add records events of one (app, file, rank, level) key; io reports
// whether any of them is an I/O operation.
func (p *pass1) add(d *dims, app, file, rank int32, level uint8, io bool) {
	setBit(&p.ranks[app], rank, (d.ranks+63)/64)
	p.maxRank = max(p.maxRank, rank)
	if io {
		i := int(app)*d.fileSlots + int(file) + 1
		if lv := uint16(level) + 1; p.levels[i] == 0 || lv < p.levels[i] {
			p.levels[i] = lv
		}
	}
}

func (p *pass1) merge(o *pass1) {
	p.maxRank = max(p.maxRank, o.maxRank)
	p.maxEnd = max(p.maxEnd, o.maxEnd)
	p.gpu = p.gpu || o.gpu
	for i, lv := range o.levels {
		if lv != 0 && (p.levels[i] == 0 || lv < p.levels[i]) {
			p.levels[i] = lv
		}
	}
	for app, bs := range o.ranks {
		if len(bs) > len(p.ranks[app]) {
			p.ranks[app], bs = bs, p.ranks[app]
		}
		for i, w := range bs {
			p.ranks[app][i] |= w
		}
	}
}

// pass2 is one worker's partial of the fused characterization scan, and
// (merged) the scan's result.
type pass2 struct {
	files      []*fileAgg // by file id; nil = no primary I/O
	perRank    []rankAcc  // by rank
	readBytes  int64
	writeBytes int64
	primData   int64
	primMeta   int64
	readHist   stats.SizeHistogram
	writeHist  stats.SizeHistogram
	readTL     *stats.Timeline
	writeTL    *stats.Timeline
}

func newPass2(d *dims, span time.Duration, bins int) *pass2 {
	return &pass2{
		files:   make([]*fileAgg, d.files),
		perRank: make([]rankAcc, d.ranks),
		readTL:  stats.NewTimeline(span, bins),
		writeTL: stats.NewTimeline(span, bins),
	}
}

func (p *pass2) merge(o *pass2) {
	for id, fa := range o.files {
		switch {
		case fa == nil:
		case p.files[id] == nil:
			p.files[id] = fa
		default:
			p.files[id].merge(fa)
		}
	}
	for r := range o.perRank {
		p.perRank[r].merge(&o.perRank[r])
	}
	p.readBytes += o.readBytes
	p.writeBytes += o.writeBytes
	p.primData += o.primData
	p.primMeta += o.primMeta
	p.readHist.Merge(&o.readHist)
	p.writeHist.Merge(&o.writeHist)
	p.readTL.Merge(o.readTL)
	p.writeTL.Merge(o.writeTL)
}

// file returns the file's accumulator, creating it on first use.
func (p *pass2) file(id int32) *fileAgg {
	fa := p.files[id]
	if fa == nil {
		fa = newFileAgg(id)
		p.files[id] = fa
	}
	return fa
}

// side picks the read or write accumulators of p and acc for a data op.
func (p *pass2) side(op trace.Op, acc *rankAcc) (hist *stats.SizeHistogram, tl *stats.Timeline, total, accBytes, accDur *int64) {
	if op == trace.OpRead {
		return &p.readHist, p.readTL, &p.readBytes, &acc.rBytes, &acc.rDur
	}
	return &p.writeHist, p.writeTL, &p.writeBytes, &acc.wBytes, &acc.wDur
}

// scan runs passes 1 and 2 and leaves their merged results in a.
func (a *analysis) scan() error {
	d, err := headerDims(a.tr)
	if err != nil {
		return err
	}
	a.dims = d
	t0 := time.Now()
	nchunks := a.tb.NumChunks()
	nw := parallel.Workers(a.par, nchunks)
	errs := make([]error, nchunks)

	// Pass 1: primary-level matrix, per-app rank bitsets, runtime, GPU.
	p1 := make([]*pass1, nw)
	parallel.ForEachWorker(a.par, nchunks, func(w, k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		if p1[w] == nil {
			p1[w] = newPass1(&d)
		}
		errs[k] = a.pass1Chunk(k, p1[w])
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	r1 := mergeWorkers(p1, (*pass1).merge)
	if r1 == nil {
		r1 = newPass1(&d)
	}
	a.runtime = time.Duration(r1.maxEnd)
	a.gpuUsed = r1.gpu
	a.dims.ranks = max(d.ranks, int(r1.maxRank)+1)
	d = a.dims
	a.appRanks = make([]int, d.apps)
	for app, bs := range r1.ranks {
		for _, w := range bs {
			a.appRanks[app] += bits.OnesCount64(w)
		}
	}
	a.pass1Time = time.Since(t0)

	// Pass 2: the fused characterization scan at the resolved levels.
	span := a.runtime
	if span <= 0 {
		span = time.Second
	}
	bins := a.opt.TimelineBins
	p2 := make([]*pass2, nw)
	a.sels = make([]chunkSel, nchunks)
	parallel.ForEachWorker(a.par, nchunks, func(w, k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		if p2[w] == nil {
			p2[w] = newPass2(&d, span, bins)
		}
		errs[k] = a.pass2Chunk(k, r1.levels, p2[w])
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	r2 := mergeWorkers(p2, (*pass2).merge)
	if r2 == nil {
		r2 = newPass2(&d, span, bins)
	}
	a.pass2 = *r2
	for _, fa := range a.files {
		if fa != nil {
			a.touched = append(a.touched, fa)
		}
	}
	a.pass2Time = time.Since(t0) - a.pass1Time
	return nil
}

// mergeWorkers folds the per-worker partials into the first one and
// returns it, or nil when there are none; a worker that drew no chunk left
// its slot nil.
func mergeWorkers[T any](parts []*T, merge func(dst, src *T)) *T {
	var out *T
	for _, p := range parts {
		switch {
		case p == nil:
		case out == nil:
			out = p
		default:
			merge(out, p)
		}
	}
	return out
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pass1Chunk folds chunk k into p. Kernel request: key spans hoist the id
// check and the level and rank updates to span boundaries, so only End and
// Op are read per row. Fallback: the full column set, row-iterated.
func (a *analysis) pass1Chunk(k int, p *pass1) error {
	c := a.tb.ChunkAt(k)
	d := &a.dims
	spans, spanOK := a.tb.ChunkKeySpans(k, nil)
	need := pass1Cols
	if spanOK {
		need = trace.ColEnd | trace.ColOp
	}
	if err := c.Require(need); err != nil {
		return err
	}
	for _, e := range c.End {
		p.maxEnd = max(p.maxEnd, e)
	}
	if spanOK {
		for _, s := range spans {
			if d.badID(s.App, s.File, s.Rank) {
				return d.idErr(s.App, s.File, s.Rank)
			}
			io := false
			for _, op := range c.Op[s.Lo:s.Hi] {
				p.gpu = p.gpu || trace.Op(op) == trace.OpGPUCompute
				io = io || trace.Op(op).IsIO()
			}
			p.add(d, s.App, s.File, s.Rank, s.Level, io)
		}
		return nil
	}
	for j := 0; j < c.N; j++ {
		if d.badID(c.App[j], c.File[j], c.Rank[j]) {
			return d.idErr(c.App[j], c.File[j], c.Rank[j])
		}
		op := trace.Op(c.Op[j])
		p.gpu = p.gpu || op == trace.OpGPUCompute
		p.add(d, c.App[j], c.File[j], c.Rank[j], c.Level[j], op.IsIO())
	}
	return nil
}

// pass2Chunk folds chunk k into p at the resolved levels and records the
// chunk's row selection for pass 3.
func (a *analysis) pass2Chunk(k int, levels []uint16, p *pass2) error {
	c := a.tb.ChunkAt(k)
	spans, spanOK := a.tb.ChunkKeySpans(k, nil)
	a.tb.TickAccumKernels(spanOK)
	need := pass2Cols
	if spanOK {
		need = trace.ColOp | trace.ColSize | trace.ColStart | trace.ColEnd
	}
	if err := c.Require(need); err != nil {
		return err
	}
	sel := &a.sels[k]
	*sel = newChunkSel(c.N)
	fileSlots := a.dims.fileSlots
	if !spanOK {
		rowPass2(c, levels, fileSlots, sel, p)
		return nil
	}
	for _, s := range spans {
		isPosix := trace.Level(s.Level) == trace.LevelPosix
		isPrim := uint16(s.Level)+1 == levels[int(s.App)*fileSlots+int(s.File)+1]
		if isPosix || isPrim {
			keySpanPass2(c, s, isPosix, isPrim, sel, p)
		}
	}
	return nil
}

// keySpanPass2 runs pass 2 over one stable-key span: the primary check,
// the file and rank accumulator lookups and the reader/writer set updates
// happen once per span; within it the op dispatch is hoisted to maximal
// same-op sub-runs, whose Size/Start/End accumulations run batched through
// SizeHistogram.AddRun and Timeline.AddRuns. Every batched add is a
// regrouped integer sum over the same rows in the same order, so the
// partial is identical to rowPass2's.
func keySpanPass2(c *colstore.Chunk, s colstore.KeySpan, isPosix, isPrim bool, sel *chunkSel, p *pass2) {
	var fa *fileAgg
	var sawRead, sawWrite bool
	acc := &p.perRank[s.Rank]
	for j := s.Lo; j < s.Hi; {
		op := trace.Op(c.Op[j])
		j2 := j + 1
		for j2 < s.Hi && c.Op[j2] == c.Op[j] {
			j2++
		}
		if !op.IsIO() {
			j = j2
			continue
		}
		if isPosix {
			sel.addPosix(j, j2)
		}
		if !isPrim {
			j = j2
			continue
		}
		sel.addPrim(c, j, j2)
		cnt := int64(j2 - j)
		if op.IsData() {
			p.primData += cnt
		} else if op.IsMeta() {
			p.primMeta += cnt
		}
		if s.File >= 0 && fa == nil {
			fa = p.file(s.File)
			fa.ranks.add(s.Rank)
		}
		acc.hit = true
		var dur int64
		switch op {
		case trace.OpRead, trace.OpWrite:
			hist, tl, total, accBytes, accDur := p.side(op, acc)
			var runBytes int64
			for i := j; i < j2; {
				sz := c.Size[i]
				dsum := c.End[i] - c.Start[i]
				i2 := i + 1
				for i2 < j2 && c.Size[i2] == sz {
					dsum += c.End[i2] - c.Start[i2]
					i2++
				}
				runBytes += sz * int64(i2-i)
				dur += dsum
				hist.AddRun(sz, int64(i2-i), time.Duration(dsum))
				i = i2
			}
			*total += runBytes
			tl.AddRuns(c.Start, c.End, c.Size, j, j2)
			*accBytes += runBytes
			*accDur += dur
			if fa != nil {
				fa.dataOps += cnt
				if op == trace.OpRead {
					fa.bytesRead += runBytes
					sawRead = true
				} else {
					fa.bytesWritten += runBytes
					sawWrite = true
				}
			}
		default:
			if fa != nil {
				for i := j; i < j2; i++ {
					dur += c.End[i] - c.Start[i]
				}
				if op == trace.OpOpen {
					fa.opens += cnt
				}
				fa.metaOps += cnt
			}
		}
		if fa != nil {
			fa.ioDur += time.Duration(dur)
		}
		j = j2
	}
	if sawRead {
		fa.addIDs(trace.OpRead, s.Rank, s.Node, s.App)
	}
	if sawWrite {
		fa.addIDs(trace.OpWrite, s.Rank, s.Node, s.App)
	}
}

// rowPass2 is pass 2's per-row form for chunks without key spans.
func rowPass2(c *colstore.Chunk, levels []uint16, fileSlots int, sel *chunkSel, p *pass2) {
	// Consecutive rows mostly repeat one (file, rank, node, app, op) key,
	// so the idempotent set updates run only when it changes.
	type setKey struct {
		file, rank, node, app int32
		op                    trace.Op
	}
	last := setKey{file: -1}
	for j := 0; j < c.N; j++ {
		op := trace.Op(c.Op[j])
		if !op.IsIO() {
			continue
		}
		if trace.Level(c.Level[j]) == trace.LevelPosix {
			sel.addPosix(j, j+1)
		}
		if uint16(c.Level[j])+1 != levels[int(c.App[j])*fileSlots+int(c.File[j])+1] {
			continue
		}
		sel.addPrim(c, j, j+1)
		dur := c.End[j] - c.Start[j]
		if op.IsData() {
			p.primData++
		} else if op.IsMeta() {
			p.primMeta++
		}
		rank := c.Rank[j]
		var fa *fileAgg
		if c.File[j] >= 0 {
			fa = p.file(c.File[j])
			fa.ioDur += time.Duration(dur)
			if k := (setKey{c.File[j], rank, c.Node[j], c.App[j], op}); k != last {
				last = k
				fa.addIDs(op, rank, c.Node[j], c.App[j])
			}
		}
		acc := &p.perRank[rank]
		acc.hit = true
		switch op {
		case trace.OpRead, trace.OpWrite:
			hist, tl, total, accBytes, accDur := p.side(op, acc)
			size := c.Size[j]
			*total += size
			hist.Add(size, time.Duration(dur))
			tl.Add(time.Duration(c.Start[j]), time.Duration(c.End[j]), size)
			*accBytes += size
			*accDur += dur
			if fa == nil {
				continue
			}
			fa.dataOps++
			if op == trace.OpRead {
				fa.bytesRead += size
			} else {
				fa.bytesWritten += size
			}
		default:
			if fa != nil {
				if op == trace.OpOpen {
					fa.opens++
				}
				fa.metaOps++
			}
		}
	}
}
