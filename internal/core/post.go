package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"vani/internal/colstore"
	"vani/internal/parallel"
	"vani/internal/trace"
)

// Pass 3: the post passes — I/O phases, the I/O-time interval union,
// dominant transfer sizes, access patterns and the per-app tallies — as one
// chunk-parallel scan over the chunk columns. Pass 2 leaves every chunk a
// chunkSel: bitmaps of its primary and POSIX-level I/O rows plus a summary
// of the primary rows' Start and End. A sequential prefix over the
// summaries gives each chunk its carry-in (whether a primary row precedes
// the chunk, and the running max End over those rows), which is all the
// order-sensitive phase split and interval union need to start mid-stream.
// Each chunk then emits mergeable partials; they merge in chunk order with
// integer sums, set unions and count maps, so the characterization is
// bit-identical at any parallelism. One fallback exists because some data
// needs it: when primary Start is not non-decreasing in row order, the
// phase accumulator runs sequentially over the stably Start-sorted primary
// rows instead (every other partial is order-free or defined in row order).

// postCols is the column set pass 3 reads.
const postCols = trace.ColOp | trace.ColApp | trace.ColLib | trace.ColRank |
	trace.ColFile | trace.ColOffset | trace.ColSize | trace.ColStart | trace.ColEnd

// chunkSel is pass 2's per-chunk output for pass 3: which rows are primary
// (at their (app, file) stream's primary level) and which are POSIX-level
// I/O, plus the primary rows' first and last Start, max End and whether
// Start ever decreases between consecutive primary rows of the chunk.
type chunkSel struct {
	prim, posix           []uint64
	nPrim, nPosix         int
	firstS, lastS, maxEnd int64
	unsorted              bool
}

func newChunkSel(n int) chunkSel {
	w := (n + 63) >> 6
	words := make([]uint64, 2*w)
	return chunkSel{prim: words[:w:w], posix: words[w:]}
}

// addPrim marks rows [lo, hi) of c primary and folds their Start and End
// into the summary. Calls arrive in ascending row order.
func (s *chunkSel) addPrim(c *colstore.Chunk, lo, hi int) {
	if s.nPrim == 0 {
		s.firstS, s.lastS, s.maxEnd = c.Start[lo], c.Start[lo], c.End[lo]
	}
	for j := lo; j < hi; j++ {
		s.prim[j>>6] |= 1 << (j & 63)
		if c.Start[j] < s.lastS {
			s.unsorted = true
		}
		s.lastS = c.Start[j]
		if c.End[j] > s.maxEnd {
			s.maxEnd = c.End[j]
		}
	}
	s.nPrim += hi - lo
}

// addPosix marks rows [lo, hi) POSIX-level I/O.
func (s *chunkSel) addPosix(lo, hi int) {
	for j := lo; j < hi; j++ {
		s.posix[j>>6] |= 1 << (j & 63)
	}
	s.nPosix += hi - lo
}

// sizeCounts counts data rows per exact transfer size (sizes <= 0 move no
// data and are skipped). Equal sizes arrive in runs — the tracer's transfer
// loops — so a pending run batches them into one map update.
type sizeCounts struct {
	m       map[int64]int64
	sz, run int64
}

func (sc *sizeCounts) add(sz int64) {
	if sz <= 0 {
		return
	}
	if sc.run > 0 && sz == sc.sz {
		sc.run++
		return
	}
	sc.flush()
	sc.sz, sc.run = sz, 1
}

func (sc *sizeCounts) flush() {
	if sc.run == 0 {
		return
	}
	if sc.m == nil {
		sc.m = map[int64]int64{}
	}
	sc.m[sc.sz] += sc.run
	sc.run = 0
}

func (sc *sizeCounts) merge(o *sizeCounts) {
	o.flush()
	for sz, n := range o.m {
		if sc.m == nil {
			sc.m = map[int64]int64{}
		}
		sc.m[sz] += n
	}
}

// dominant returns the most frequent size, ties breaking toward the larger
// size, or 0 when no data row was counted.
func (sc *sizeCounts) dominant() int64 {
	sc.flush()
	var best, bestN int64
	for sz, n := range sc.m {
		if n > bestN || (n == bestN && sz > best) {
			best, bestN = sz, n
		}
	}
	return best
}

// phase tallies one I/O phase's primary rows. In a pass-3 partial it holds
// the part of a phase that falls in one chunk; cont marks a part that
// continues the phase open at the chunk's start instead of opening one.
// Rows arrive in Start order, so minS is the first row's Start. ranks lists
// the part's distinct ranks, deduplicated through a rankStamp under id.
type phase struct {
	cont                         bool
	n, data, meta, reads, writes int64
	bytes, minS, maxE            int64
	id                           uint32 // the part's stamp in its rankStamp
	rank                         int32  // last rank added: the list changes only when it does
	ranks                        []int32
	sizes                        [2]sizeCounts // read, write
}

// rankStamp deduplicates phase rank lists without a set per phase:
// stamp[r] is the id of the last phase that listed rank r, and every phase
// draws a fresh id. Ranks index it directly — pass 1 bounds them by
// dims.ranks before pass 3 runs.
type rankStamp struct {
	stamp []uint32
	id    uint32
}

func newRankStamp(ranks int) rankStamp { return rankStamp{stamp: make([]uint32, ranks)} }

// next returns a fresh phase id. Every phase part holds at least one row,
// so ids cannot wrap before the table outgrows memory.
func (rs *rankStamp) next() uint32 {
	rs.id++
	return rs.id
}

// list appends rank to ph.ranks unless ph already lists it.
func (rs *rankStamp) list(ph *phase, rank int32) {
	if rs.stamp[rank] != ph.id {
		rs.stamp[rank] = ph.id
		ph.ranks = append(ph.ranks, rank)
	}
}

func (ph *phase) add(rs *rankStamp, op trace.Op, size, end int64, rank int32) {
	if ph.n == 0 || rank != ph.rank {
		rs.list(ph, rank)
		ph.rank = rank
	}
	ph.n++
	ph.maxE = max(ph.maxE, end)
	switch {
	case op == trace.OpRead:
		ph.reads++
		ph.data++
		ph.bytes += size
		ph.sizes[0].add(size)
	case op == trace.OpWrite:
		ph.writes++
		ph.data++
		ph.bytes += size
		ph.sizes[1].add(size)
	case op.IsMeta():
		ph.meta++
	}
}

// merge folds a later part of the same phase into ph, whose ranks rs has
// stamped with ph.id.
func (ph *phase) merge(rs *rankStamp, o *phase) {
	ph.n += o.n
	ph.data += o.data
	ph.meta += o.meta
	ph.reads += o.reads
	ph.writes += o.writes
	ph.bytes += o.bytes
	ph.maxE = max(ph.maxE, o.maxE)
	for _, r := range o.ranks {
		rs.list(ph, r)
	}
	ph.sizes[0].merge(&o.sizes[0])
	ph.sizes[1].merge(&o.sizes[1])
}

// entity renders the phase as its Table V entity. The granule is the
// dominant read size unless the phase writes more often than it reads (or
// has no read size), in which case it is the dominant write size.
func (ph *phase) entity(idx int) IOPhaseEntity {
	dPct, mPct := pcts(ph.data, ph.meta)
	opsPerRank := float64(ph.n) / float64(len(ph.ranks))
	granule := ph.sizes[0].dominant()
	if g := ph.sizes[1].dominant(); granule == 0 || (g > 0 && ph.writes > ph.reads) {
		granule = g
	}
	return IOPhaseEntity{
		Index:      idx,
		Start:      time.Duration(ph.minS),
		End:        time.Duration(ph.maxE),
		IOBytes:    ph.bytes,
		DataOpsPct: dPct,
		MetaOpsPct: mPct,
		OpsPerRank: opsPerRank,
		Granule:    granule,
		Frequency:  phaseLabel(opsPerRank, granule),
		Runtime:    time.Duration(ph.maxE - ph.minS),
	}
}

// phaseScan walks primary rows in Start order: a row opens a new phase
// when it starts more than gap after every earlier row ended (Section IV-B's
// inter-I/O threshold), and ioTime sums the part of each row's [Start, End)
// not already covered — the interval union, since earlier rows never start
// later. seen and runMax carry in from earlier chunks: whether a primary
// row precedes, and the max End over those rows. ranks is the scanning
// worker's rank stamp.
type phaseScan struct {
	gap    int64
	seen   bool
	runMax int64
	ioTime int64
	parts  []*phase
	ranks  *rankStamp
}

func (ps *phaseScan) add(op trace.Op, size, start, end int64, rank int32) {
	split := ps.seen && start-max(ps.runMax, 0) > ps.gap
	if split || len(ps.parts) == 0 {
		ps.parts = append(ps.parts, &phase{cont: ps.seen && !split, minS: start, id: ps.ranks.next()})
	}
	switch {
	case !ps.seen || start > ps.runMax:
		ps.ioTime += end - start
	case end > ps.runMax:
		ps.ioTime += end - ps.runMax
	}
	if !ps.seen || end > ps.runMax {
		ps.runMax = end
	}
	ps.seen = true
	ps.parts[len(ps.parts)-1].add(ps.ranks, op, size, end, rank)
}

// streams classifies data-row offsets per (file, rank) stream in row
// order: a step is sequential when the offset does not decrease. recs holds
// one record per stream in first-seen order; a pass-3 partial keeps each
// stream's first and last offset so the merge can count the step across
// the chunk edge. Records are found through a streamIndex.
type streams struct {
	recs []stream
}

type stream struct {
	file, rank              int32
	first, last, seq, total int64
}

type streamKey struct{ file, rank int32 }

// streamIndex finds a streams' record by (file, rank) without hashing in
// the common case: head[rank] is 1 + the index of the rank's most recent
// record (0: none), and only ranks that switch files spill every record
// they own into the (file, rank) map. Ranks index head directly — pass 1
// bounds them by dims.ranks before pass 3 runs.
type streamIndex struct {
	head  []int32
	spill map[streamKey]int32
}

func newStreamIndex(ranks int) streamIndex { return streamIndex{head: make([]int32, ranks)} }

// lookup returns the index of ss's record for (file, rank), or -1 after
// indexing the record the caller must append next.
func (ix *streamIndex) lookup(ss *streams, file, rank int32) int {
	h := ix.head[rank] - 1
	if h >= 0 && ss.recs[h].file == file {
		return int(h)
	}
	n := int32(len(ss.recs))
	if h < 0 {
		ix.head[rank] = n + 1
		return -1
	}
	// The rank switches files: every record it owns goes in the spill map.
	if ix.spill == nil {
		ix.spill = map[streamKey]int32{}
	}
	ix.spill[streamKey{ss.recs[h].file, rank}] = h
	i, ok := ix.spill[streamKey{file, rank}]
	if !ok {
		i = n
		ix.spill[streamKey{file, rank}] = n
	}
	ix.head[rank] = i + 1
	if !ok {
		return -1
	}
	return int(i)
}

// reset empties the index of ss's records, leaving it ready for another
// streams.
func (ix *streamIndex) reset(ss *streams) {
	for i := range ss.recs {
		ix.head[ss.recs[i].rank] = 0
	}
	clear(ix.spill)
}

func (ss *streams) add(ix *streamIndex, file, rank int32, off int64) {
	i := ix.lookup(ss, file, rank)
	if i < 0 {
		ss.recs = append(ss.recs, stream{file: file, rank: rank, first: off, last: off})
		return
	}
	st := &ss.recs[i]
	st.total++
	if off >= st.last {
		st.seq++
	}
	st.last = off
}

// merge appends a later chunk's streams.
func (ss *streams) merge(ix *streamIndex, o *streams) {
	for _, p := range o.recs {
		i := ix.lookup(ss, p.file, p.rank)
		if i < 0 {
			ss.recs = append(ss.recs, p)
			continue
		}
		st := &ss.recs[i]
		st.total += p.total + 1
		st.seq += p.seq
		if p.first >= st.last {
			st.seq++
		}
		st.last = p.last
	}
}

// pattern is "Seq" when at least 80% of consecutive accesses within
// streams are sequential (or there are none), else "Random".
func (ss *streams) pattern() string {
	var seq, total int64
	for _, st := range ss.recs {
		seq += st.seq
		total += st.total
	}
	if total == 0 || float64(seq)/float64(total) >= 0.8 {
		return "Seq"
	}
	return "Random"
}

// appTally is one application's primary-row tallies.
type appTally struct {
	data, meta, bytes int64
	minS, maxE        int64
	libs              [8]int64
}

func (t *appTally) add(op trace.Op, size, start, end int64, lib uint8) {
	if op.IsData() {
		t.data++
		t.bytes += size
	} else if op.IsMeta() {
		t.meta++
	}
	t.minS = min(t.minS, start)
	t.maxE = max(t.maxE, end)
	if int(lib) < len(t.libs) {
		t.libs[lib]++
	}
}

func (t *appTally) merge(o *appTally) {
	t.data += o.data
	t.meta += o.meta
	t.bytes += o.bytes
	t.minS = min(t.minS, o.minS)
	t.maxE = max(t.maxE, o.maxE)
	for i, n := range o.libs {
		t.libs[i] += n
	}
}

// post3 is the per-chunk partial of pass 3: the order-sensitive parts.
type post3 struct {
	phases       phaseScan
	primStreams  streams
	posixStreams streams
}

// post3Worker is one pass-3 worker's state: the order-free partials it
// folds every chunk it draws into — per-app tallies by app id, POSIX size
// counts — and the rank-indexed scratch its chunk partials are built with.
type post3Worker struct {
	apps       []*appTally // by app id; nil = no primary row seen
	posixSizes [2]sizeCounts
	ranks      rankStamp
	ix         streamIndex
	recs       []stream // stream records under construction
}

// beginStreams starts one chunk's stream records in the worker's buffer.
func (pw *post3Worker) beginStreams() streams { return streams{recs: pw.recs[:0]} }

// endStreams returns an exact-size copy of the records begun by
// beginStreams, keeping the buffer and leaving the index empty again.
func (pw *post3Worker) endStreams(ss *streams) streams {
	pw.ix.reset(ss)
	pw.recs = ss.recs[:0]
	return streams{recs: slices.Clone(ss.recs)}
}

// mergeStreams concatenates the chunk partials of one stream kind in
// chunk order through ix, leaving ix empty again.
func mergeStreams(ix *streamIndex, parts []post3, get func(p *post3) *streams) streams {
	n := 0
	for k := range parts {
		n += len(get(&parts[k]).recs)
	}
	out := streams{recs: make([]stream, 0, n)}
	for k := range parts {
		out.merge(ix, get(&parts[k]))
	}
	ix.reset(&out)
	return out
}

// postScan runs pass 3 over the selections pass 2 left in a.sels and
// merges its partials into the analysis.
func (a *analysis) postScan() error {
	nchunks := len(a.sels)
	// Carry-ins from the pass-2 summaries; ordered is false when primary
	// Start decreases anywhere in row order.
	scans := make([]phaseScan, nchunks)
	ordered := true
	run := phaseScan{gap: int64(a.opt.PhaseGap)}
	var lastS int64
	for k := range a.sels {
		s := &a.sels[k]
		scans[k] = run
		if s.nPrim == 0 {
			continue
		}
		if s.unsorted || (run.seen && s.firstS < lastS) {
			ordered = false
		}
		lastS = s.lastS
		if !run.seen || s.maxEnd > run.runMax {
			run.runMax = s.maxEnd
		}
		run.seen = true
	}

	d := &a.dims
	errs := make([]error, nchunks)
	parts := make([]post3, nchunks)
	workers := make([]*post3Worker, parallel.Workers(a.par, nchunks))
	parallel.ForEachWorker(a.par, nchunks, func(w, k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		sel := &a.sels[k]
		if sel.nPrim == 0 && sel.nPosix == 0 {
			return
		}
		c := a.tb.ChunkAt(k)
		if errs[k] = c.Require(postCols); errs[k] != nil {
			return
		}
		pw := workers[w]
		if pw == nil {
			pw = &post3Worker{apps: make([]*appTally, d.apps), ranks: newRankStamp(d.ranks), ix: newStreamIndex(d.ranks)}
			workers[w] = pw
		}
		p := &parts[k]
		p.phases = scans[k]
		p.phases.ranks = &pw.ranks
		ss := pw.beginStreams()
		for wi, word := range sel.prim {
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				op := trace.Op(c.Op[j])
				if ordered {
					p.phases.add(op, c.Size[j], c.Start[j], c.End[j], c.Rank[j])
				}
				if op.IsData() && c.File[j] >= 0 {
					ss.add(&pw.ix, c.File[j], c.Rank[j], c.Offset[j])
				}
				at := pw.apps[c.App[j]]
				if at == nil {
					at = &appTally{minS: math.MaxInt64}
					pw.apps[c.App[j]] = at
				}
				at.add(op, c.Size[j], c.Start[j], c.End[j], c.Lib[j])
			}
		}
		p.primStreams = pw.endStreams(&ss)
		ss = pw.beginStreams()
		for wi, word := range sel.posix {
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				switch trace.Op(c.Op[j]) {
				case trace.OpRead:
					pw.posixSizes[0].add(c.Size[j])
				case trace.OpWrite:
					pw.posixSizes[1].add(c.Size[j])
				default:
					continue
				}
				if c.File[j] >= 0 {
					ss.add(&pw.ix, c.File[j], c.Rank[j], c.Offset[j])
				}
			}
		}
		p.posixStreams = pw.endStreams(&ss)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// The merge reuses the first worker's rank-indexed scratch: its index
	// is empty, and its stamp's later ids never match an earlier stamp.
	// With no worker (no chunk had rows) there is nothing to merge into.
	var mw *post3Worker
	for _, pw := range workers {
		if pw != nil {
			mw = pw
			break
		}
	}
	if mw == nil {
		mw = &post3Worker{ranks: newRankStamp(d.ranks), ix: newStreamIndex(d.ranks)}
	}
	// Phase parts merge in chunk order: a cont part joins the phase before
	// it, its ranks unioned under the merge worker's stamp.
	var phases []*phase
	var ioTime int64
	ms := &mw.ranks
	collect := func(ps *phaseScan) {
		ioTime += ps.ioTime
		for _, ph := range ps.parts {
			if ph.cont {
				phases[len(phases)-1].merge(ms, ph)
				continue
			}
			ph.id = ms.next()
			for _, r := range ph.ranks {
				ms.stamp[r] = ph.id
			}
			phases = append(phases, ph)
		}
	}
	if ordered {
		for k := range parts {
			collect(&parts[k].phases)
		}
	}
	a.primStreams = mergeStreams(&mw.ix, parts, func(p *post3) *streams { return &p.primStreams })
	a.posixStreams = mergeStreams(&mw.ix, parts, func(p *post3) *streams { return &p.posixStreams })
	a.appTallies = make([]*appTally, d.apps)
	for _, pw := range workers {
		if pw == nil {
			continue
		}
		a.posixSizes[0].merge(&pw.posixSizes[0])
		a.posixSizes[1].merge(&pw.posixSizes[1])
		for app, t := range pw.apps {
			switch cur := a.appTallies[app]; {
			case t == nil:
			case cur == nil:
				a.appTallies[app] = t
			default:
				cur.merge(t)
			}
		}
	}
	if !ordered {
		ps := a.sortedPhases()
		collect(&ps)
	}
	a.ioTime = time.Duration(ioTime)
	for _, ph := range phases {
		a.primSizes[0].merge(&ph.sizes[0])
		a.primSizes[1].merge(&ph.sizes[1])
	}
	a.phaseList = phases
	return nil
}

// sortedPhases is the fallback for primary rows whose Start is not
// non-decreasing in row order: the phase scan runs sequentially over the
// primary rows stably sorted by Start, so equal Starts keep row order.
func (a *analysis) sortedPhases() phaseScan {
	type ref struct {
		start int64
		k, j  int32
	}
	var refs []ref
	for k := range a.sels {
		c := a.tb.ChunkAt(k)
		for w, word := range a.sels[k].prim {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				refs = append(refs, ref{c.Start[j], int32(k), int32(j)})
			}
		}
	}
	sort.SliceStable(refs, func(x, y int) bool { return refs[x].start < refs[y].start })
	rs := newRankStamp(a.dims.ranks)
	ps := phaseScan{gap: int64(a.opt.PhaseGap), ranks: &rs}
	for _, r := range refs {
		c, j := a.tb.ChunkAt(int(r.k)), int(r.j)
		ps.add(trace.Op(c.Op[j]), c.Size[j], r.start, c.End[j], c.Rank[j])
	}
	return ps
}
