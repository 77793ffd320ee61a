package core

import (
	"context"
	"sort"
	"time"

	"vani/internal/colstore"
	"vani/internal/parallel"
	"vani/internal/stats"
	"vani/internal/storage"
	"vani/internal/trace"
)

// Options configures the analyzer.
type Options struct {
	// PhaseGap is the inter-I/O gap that separates two I/O phases
	// ("defined using a threshold between two I/O calls", Section IV-B).
	PhaseGap time.Duration
	// TimelineBins sets the resolution of the figure timelines.
	TimelineBins int
	// Storage, when non-nil, fills the storage entities (Tables VIII/IX)
	// from the system the job ran against.
	Storage *storage.Config
	// TopFlows limits the dependency panel to the N highest-volume files.
	TopFlows int
	// Parallelism bounds the workers used for the chunk-parallel scans
	// (<= 0 means GOMAXPROCS, 1 runs fully sequential). Every scan reduces
	// its per-chunk partials in chunk order and accumulates in integers, so
	// the characterization is bit-identical at any setting.
	Parallelism int
	// Filter restricts the characterization to the matching events. Analyze
	// applies it to the in-memory event log before columnarizing (the
	// reference semantics); the facade's file path pushes the same filter
	// down to the block index instead. AnalyzeTable assumes its table was
	// already built under the filter and does not re-apply it.
	Filter trace.Filter
	// Stats, when non-nil, receives per-stage wall-clock timings.
	Stats *Timings
}

// Timings records the wall-clock cost of each pipeline stage.
type Timings struct {
	// TraceMerge is the tracer's shard-merge time (filled by callers that
	// hold the tracer; the analyzer itself never sees it).
	TraceMerge time.Duration
	// Columnarize is the row-to-column transposition time.
	Columnarize time.Duration
	// Analyze is the fused characterization time; Pass1, Pass2 and Post
	// split it into the level-resolution scan, the characterization scan
	// and everything after it (pass 3 and the entity builders).
	Analyze            time.Duration
	Pass1, Pass2, Post time.Duration
	// Scan counts what the scan plan did: blocks pruned via the footer
	// index, rows dropped by the residual filter, payload bytes decoded vs
	// available. Filled by the file scan path (or, for in-memory filtering,
	// the row counters only).
	Scan colstore.ScanCounters
}

// The analyzer's declared column sets — the projection half of its scan
// plan. Each fused pass Requires exactly the columns its kernels read, so a
// lazily planned table decodes nothing the analysis never touches.
const (
	// pass1Cols feeds primary-level resolution and the global scan facts.
	pass1Cols = trace.ColEnd | trace.ColOp | trace.ColApp | trace.ColRank |
		trace.ColLevel | trace.ColFile
	// pass2Cols feeds the fused characterization scan.
	pass2Cols = trace.ColLevel | trace.ColOp | trace.ColApp | trace.ColFile |
		trace.ColRank | trace.ColNode | trace.ColSize | trace.ColStart |
		trace.ColEnd
)

// DefaultOptions returns the analyzer settings used for the paper tables.
func DefaultOptions() Options {
	return Options{
		PhaseGap:     time.Second,
		TimelineBins: 64,
		TopFlows:     8,
	}
}

func (opt *Options) fill() {
	if opt.PhaseGap <= 0 {
		opt.PhaseGap = time.Second
	}
	if opt.TimelineBins <= 0 {
		opt.TimelineBins = 64
	}
	if opt.TopFlows <= 0 {
		opt.TopFlows = 8
	}
}

// Analyze builds the full characterization from an in-memory trace. A
// non-empty opt.Filter is applied to the event log before columnarizing —
// the reference semantics every pushed-down scan must reproduce.
func Analyze(tr *trace.Trace, opt Options) *Characterization {
	opt.fill()
	evs := tr.Events
	if !opt.Filter.Empty() {
		evs = trace.FilterEvents(evs, opt.Filter)
		if opt.Stats != nil {
			opt.Stats.Scan.RowsTotal = int64(len(tr.Events))
			opt.Stats.Scan.RowsKept = int64(len(evs))
		}
	}
	t0 := time.Now()
	tb := colstore.FromEvents(evs, opt.Parallelism)
	if opt.Stats != nil {
		opt.Stats.Columnarize = time.Since(t0)
	}
	// An eagerly built table has every column materialized, so analysis
	// cannot hit a decode error.
	c, _ := AnalyzeTable(tr, tb, opt)
	return c
}

// AnalyzeContext is Analyze with cancellation: the chunk-parallel scan
// workers observe ctx, so a canceled or timed-out caller aborts mid-scan.
// With a background context it never fails and matches Analyze exactly.
func AnalyzeContext(ctx context.Context, tr *trace.Trace, opt Options) (*Characterization, error) {
	opt.fill()
	evs := tr.Events
	if !opt.Filter.Empty() {
		evs = trace.FilterEvents(evs, opt.Filter)
		if opt.Stats != nil {
			opt.Stats.Scan.RowsTotal = int64(len(tr.Events))
			opt.Stats.Scan.RowsKept = int64(len(evs))
		}
	}
	t0 := time.Now()
	tb := colstore.FromEvents(evs, opt.Parallelism)
	if opt.Stats != nil {
		opt.Stats.Columnarize = time.Since(t0)
	}
	return AnalyzeTableContext(ctx, tr, tb, opt)
}

// AnalyzeTable builds the characterization from a columnar table plus the
// trace header carrying its metadata and interning tables (hdr.Events is
// never touched, so traces streamed off disk need not materialize one).
// The table may be lazily planned (colstore.FromBlocksSpec): each pass
// Requires its declared column set, so decode errors deferred by the plan
// surface here. opt.Filter is NOT applied — the table is assumed to have
// been built under it.
func AnalyzeTable(hdr *trace.Trace, tb *colstore.Table, opt Options) (*Characterization, error) {
	return AnalyzeTableContext(context.Background(), hdr, tb, opt)
}

// AnalyzeTableContext is AnalyzeTable with cancellation: the chunk-parallel
// scan workers observe ctx per chunk, so a canceled or timed-out caller
// aborts the analysis mid-scan. The returned error is ctx.Err() when the
// abort was a cancellation.
func AnalyzeTableContext(ctx context.Context, hdr *trace.Trace, tb *colstore.Table, opt Options) (*Characterization, error) {
	opt.fill()
	t0 := time.Now()
	a := &analysis{ctx: ctx, tr: hdr, tb: tb, opt: opt, par: opt.Parallelism}
	c, err := a.run()
	if err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		opt.Stats.Analyze = time.Since(t0)
		opt.Stats.Pass1, opt.Stats.Pass2 = a.pass1Time, a.pass2Time
		opt.Stats.Post = opt.Stats.Analyze - a.pass1Time - a.pass2Time
	}
	return c, nil
}

type analysis struct {
	ctx context.Context
	tr  *trace.Trace // header only: Meta, Apps, Files, Samples
	tb  *colstore.Table
	opt Options
	par int

	// Filled by the fused scan (passes 1 and 2).
	runtime    time.Duration
	gpuUsed    bool
	appRanks   map[int32]int // ranks that emitted any event, per app
	sels       []chunkSel    // per-chunk primary and POSIX row selections
	fileAgg    map[int32]*fileAgg
	readBytes  int64
	writeBytes int64
	primData   int64
	primMeta   int64
	readHist   stats.SizeHistogram
	writeHist  stats.SizeHistogram
	readTL     *stats.Timeline
	writeTL    *stats.Timeline
	perRank    map[int32]*rankAcc

	// Filled by pass 3 (post.go).
	ioTime       time.Duration
	phaseList    []*phase
	primSizes    [2]sizeCounts // read, write
	posixSizes   [2]sizeCounts
	primStreams  streams
	posixStreams streams
	appTallies   map[int32]*appTally

	pass1Time, pass2Time time.Duration
}

type fileAgg struct {
	id           int32
	ranks        map[int32]bool
	writerRanks  map[int32]bool
	readerRanks  map[int32]bool
	writerNodes  map[int32]bool
	readerNodes  map[int32]bool
	writerApps   map[int32]bool
	readerApps   map[int32]bool
	bytesRead    int64
	bytesWritten int64
	opens        int64
	dataOps      int64
	metaOps      int64
	ioDur        time.Duration
}

func newFileAgg(id int32) *fileAgg {
	return &fileAgg{
		id:          id,
		ranks:       map[int32]bool{},
		writerRanks: map[int32]bool{},
		readerRanks: map[int32]bool{},
		writerNodes: map[int32]bool{},
		readerNodes: map[int32]bool{},
		writerApps:  map[int32]bool{},
		readerApps:  map[int32]bool{},
	}
}

func mergeSet(dst, src map[int32]bool) {
	for k := range src {
		dst[k] = true
	}
}

func (fa *fileAgg) merge(o *fileAgg) {
	mergeSet(fa.ranks, o.ranks)
	mergeSet(fa.writerRanks, o.writerRanks)
	mergeSet(fa.readerRanks, o.readerRanks)
	mergeSet(fa.writerNodes, o.writerNodes)
	mergeSet(fa.readerNodes, o.readerNodes)
	mergeSet(fa.writerApps, o.writerApps)
	mergeSet(fa.readerApps, o.readerApps)
	fa.bytesRead += o.bytesRead
	fa.bytesWritten += o.bytesWritten
	fa.opens += o.opens
	fa.dataOps += o.dataOps
	fa.metaOps += o.metaOps
	fa.ioDur += o.ioDur
}

type rankAcc struct {
	rBytes, wBytes int64
	rDur, wDur     int64
}

func (a *analysis) run() (*Characterization, error) {
	if err := a.fusedScan(); err != nil {
		return nil, err
	}
	if err := a.postScan(); err != nil {
		return nil, err
	}

	c := &Characterization{Workload: a.tr.Meta.Workload}
	c.JobConfig = a.jobConfig()
	c.Apps = a.apps()
	c.Workflow = a.workflow(c.Apps)
	c.Phases = a.phases()
	c.HighLevel = a.highLevel()
	c.Middleware = a.middleware()
	c.NodeLocal, c.Shared = a.storageEntities()
	c.Dataset = a.dataset()
	c.File = a.fileEntity()
	c.Figure = a.figure()
	return c, nil
}

type appFile struct {
	app  int32
	file int32
}

// pass1 is the per-chunk partial of the level-resolution scan: the
// app-facing level per (application, file) stream — the highest abstraction
// through which that application touched that file, so counting there
// avoids double-counting one logical operation across layers while keeping
// POSIX-only side traffic visible — plus the global facts (job runtime,
// GPU usage, per-app rank sets) the old analyzer gathered with separate
// whole-table walks.
type pass1 struct {
	levels   map[appFile]uint8
	maxEnd   int64
	gpu      bool
	appRanks map[int32]map[int32]bool
}

// pass2 is the per-chunk partial of the fused characterization scan. Every
// numeric accumulator is an integer sum and every set a union, so the
// merged result is bit-identical at any parallelism; sel is the chunk's
// row selection for pass 3.
type pass2 struct {
	sel        chunkSel
	files      map[int32]*fileAgg
	readBytes  int64
	writeBytes int64
	data, meta int64
	readHist   stats.SizeHistogram
	writeHist  stats.SizeHistogram
	readTL     *stats.Timeline
	writeTL    *stats.Timeline
	perRank    map[int32]*rankAcc
}

// fusedScan replaces the old analyzer's half-dozen independent whole-table
// predicate walks (primary-level resolution, primary row collection,
// per-app rank scans, GPU detection, POSIX row collection, file
// aggregation, histogram/timeline/per-rank accumulation) with two
// chunk-parallel passes over the columnar store. Each pass declares its
// column set and Requires it per chunk, so a lazily planned table decodes
// exactly the columns the pass touches.
func (a *analysis) fusedScan() error {
	t0 := time.Now()
	// Grouped execution first: when the key columns unify to dense codes,
	// the whole scan runs on flat arrays and key spans (analyzer_grouped.go)
	// with byte-identical results; otherwise this map-keyed path runs.
	if colstore.GroupedKernelsEnabled() {
		if done, err := a.fusedScanGrouped(); err != nil || done {
			return err
		}
	}
	nchunks := a.tb.NumChunks()
	errs := make([]error, nchunks)

	// Pass 1: resolve primary levels and global scan facts.
	p1 := make([]*pass1, nchunks)
	parallel.ForEach(a.par, nchunks, func(k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		c := a.tb.ChunkAt(k)
		// Kernel request: serve the pass from constant-key spans over the
		// encoded segments, materializing only End (whose delta-chain
		// segment has no compressed-domain form). Fallback: materialize the
		// pass's full column set and iterate rows.
		spans, spanOK := a.tb.ChunkSpans(k, nil)
		need := pass1Cols
		if spanOK {
			need = trace.ColEnd
		}
		if errs[k] = c.Require(need); errs[k] != nil {
			return
		}
		p := &pass1{levels: map[appFile]uint8{}, appRanks: map[int32]map[int32]bool{}}
		if spanOK {
			for _, e := range c.End {
				if e > p.maxEnd {
					p.maxEnd = e
				}
			}
			for _, s := range spans {
				if trace.Op(s.Op) == trace.OpGPUCompute {
					p.gpu = true
				}
				ranks := p.appRanks[s.App]
				if ranks == nil {
					ranks = map[int32]bool{}
					p.appRanks[s.App] = ranks
				}
				ranks[s.Rank] = true
				if !trace.Op(s.Op).IsIO() {
					continue
				}
				key := appFile{s.App, s.File}
				if cur, ok := p.levels[key]; !ok || s.Level < cur {
					p.levels[key] = s.Level
				}
			}
			p1[k] = p
			return
		}
		for j := 0; j < c.N; j++ {
			if c.End[j] > p.maxEnd {
				p.maxEnd = c.End[j]
			}
			if trace.Op(c.Op[j]) == trace.OpGPUCompute {
				p.gpu = true
			}
			ranks := p.appRanks[c.App[j]]
			if ranks == nil {
				ranks = map[int32]bool{}
				p.appRanks[c.App[j]] = ranks
			}
			ranks[c.Rank[j]] = true
			if !trace.Op(c.Op[j]).IsIO() {
				continue
			}
			key := appFile{c.App[j], c.File[j]}
			if cur, ok := p.levels[key]; !ok || c.Level[j] < cur {
				p.levels[key] = c.Level[j]
			}
		}
		p1[k] = p
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	levels := map[appFile]uint8{}
	appRankSets := map[int32]map[int32]bool{}
	var maxEnd int64
	for _, p := range p1 {
		if p.maxEnd > maxEnd {
			maxEnd = p.maxEnd
		}
		a.gpuUsed = a.gpuUsed || p.gpu
		for key, lv := range p.levels {
			if cur, ok := levels[key]; !ok || lv < cur {
				levels[key] = lv
			}
		}
		for app, ranks := range p.appRanks {
			if appRankSets[app] == nil {
				appRankSets[app] = map[int32]bool{}
			}
			mergeSet(appRankSets[app], ranks)
		}
	}
	a.runtime = time.Duration(maxEnd)
	a.appRanks = make(map[int32]int, len(appRankSets))
	for app, ranks := range appRankSets {
		a.appRanks[app] = len(ranks)
	}
	a.pass1Time = time.Since(t0)

	// Pass 2: the fused characterization scan at the resolved levels.
	span := a.runtime
	if span <= 0 {
		span = time.Second
	}
	bins := a.opt.TimelineBins
	p2 := make([]*pass2, nchunks)
	parallel.ForEach(a.par, nchunks, func(k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		c := a.tb.ChunkAt(k)
		// Same kernel request as pass 1: spans hoist every per-row map
		// lookup, level check and op dispatch to span boundaries; only the
		// Size/Start/End accumulations stay per-row, in unchanged row
		// order, so the result is byte-identical to the row loop.
		spans, spanOK := a.tb.ChunkSpans(k, nil)
		a.tb.TickAccumKernels(spanOK)
		need := pass2Cols
		if spanOK {
			need = trace.ColSize | trace.ColStart | trace.ColEnd
		}
		if errs[k] = c.Require(need); errs[k] != nil {
			return
		}
		p := &pass2{
			sel:     newChunkSel(c.N),
			files:   map[int32]*fileAgg{},
			readTL:  stats.NewTimeline(span, bins),
			writeTL: stats.NewTimeline(span, bins),
			perRank: map[int32]*rankAcc{},
		}
		if spanOK {
			a.spanPass2(c, spans, levels, p)
			p2[k] = p
			return
		}
		for j := 0; j < c.N; j++ {
			op := trace.Op(c.Op[j])
			if !op.IsIO() {
				continue
			}
			if trace.Level(c.Level[j]) == trace.LevelPosix {
				p.sel.addPosix(j, j+1)
			}
			if c.Level[j] != levels[appFile{c.App[j], c.File[j]}] {
				continue
			}
			p.sel.addPrim(c, j, j+1)
			dur := c.End[j] - c.Start[j]
			if op.IsData() {
				p.data++
			} else if op.IsMeta() {
				p.meta++
			}
			var fa *fileAgg
			if c.File[j] >= 0 {
				fa = p.files[c.File[j]]
				if fa == nil {
					fa = newFileAgg(c.File[j])
					p.files[c.File[j]] = fa
				}
				fa.ranks[c.Rank[j]] = true
				fa.ioDur += time.Duration(dur)
			}
			acc := p.perRank[c.Rank[j]]
			if acc == nil {
				acc = &rankAcc{}
				p.perRank[c.Rank[j]] = acc
			}
			switch op {
			case trace.OpRead:
				p.readBytes += c.Size[j]
				p.readHist.Add(c.Size[j], time.Duration(dur))
				p.readTL.Add(time.Duration(c.Start[j]), time.Duration(c.End[j]), c.Size[j])
				acc.rBytes += c.Size[j]
				acc.rDur += dur
				if fa != nil {
					fa.bytesRead += c.Size[j]
					fa.readerRanks[c.Rank[j]] = true
					fa.readerNodes[c.Node[j]] = true
					fa.readerApps[c.App[j]] = true
					fa.dataOps++
				}
			case trace.OpWrite:
				p.writeBytes += c.Size[j]
				p.writeHist.Add(c.Size[j], time.Duration(dur))
				p.writeTL.Add(time.Duration(c.Start[j]), time.Duration(c.End[j]), c.Size[j])
				acc.wBytes += c.Size[j]
				acc.wDur += dur
				if fa != nil {
					fa.bytesWritten += c.Size[j]
					fa.writerRanks[c.Rank[j]] = true
					fa.writerNodes[c.Node[j]] = true
					fa.writerApps[c.App[j]] = true
					fa.dataOps++
				}
			case trace.OpOpen:
				if fa != nil {
					fa.opens++
					fa.metaOps++
				}
			default:
				if fa != nil {
					fa.metaOps++
				}
			}
		}
		p2[k] = p
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	a.sels = make([]chunkSel, nchunks)
	a.fileAgg = map[int32]*fileAgg{}
	a.readTL = stats.NewTimeline(span, bins)
	a.writeTL = stats.NewTimeline(span, bins)
	a.perRank = map[int32]*rankAcc{}
	for k, p := range p2 {
		a.sels[k] = p.sel
		for f, fa := range p.files {
			if cur := a.fileAgg[f]; cur != nil {
				cur.merge(fa)
			} else {
				a.fileAgg[f] = fa
			}
		}
		a.readBytes += p.readBytes
		a.writeBytes += p.writeBytes
		a.primData += p.data
		a.primMeta += p.meta
		a.readHist.Merge(&p.readHist)
		a.writeHist.Merge(&p.writeHist)
		a.readTL.Merge(p.readTL)
		a.writeTL.Merge(p.writeTL)
		for r, acc := range p.perRank {
			if cur := a.perRank[r]; cur != nil {
				cur.rBytes += acc.rBytes
				cur.wBytes += acc.wBytes
				cur.rDur += acc.rDur
				cur.wDur += acc.wDur
			} else {
				a.perRank[r] = acc
			}
		}
	}
	a.pass2Time = time.Since(t0) - a.pass1Time
	return nil
}

// spanPass2 runs pass 2 over one chunk's constant-key spans: the level
// check, primary resolution, file and rank accumulator lookups and the op
// dispatch happen once per span instead of once per row, and the remaining
// Size/Start/End accumulations run batched — equal-size sub-runs feed
// SizeHistogram.AddRun, Timeline.AddRuns buckets whole spans, and the byte
// and duration tallies are span sums. Every batched add is a regrouped
// integer sum over the same rows in the same order, so every per-chunk
// partial is identical to the fallback's.
func (a *analysis) spanPass2(c *colstore.Chunk, spans []colstore.Span, levels map[appFile]uint8, p *pass2) {
	for _, s := range spans {
		op := trace.Op(s.Op)
		if !op.IsIO() {
			continue
		}
		if trace.Level(s.Level) == trace.LevelPosix {
			p.sel.addPosix(s.Lo, s.Hi)
		}
		if s.Level != levels[appFile{s.App, s.File}] {
			continue
		}
		p.sel.addPrim(c, s.Lo, s.Hi)
		n := int64(s.Hi - s.Lo)
		if op.IsData() {
			p.data += n
		} else if op.IsMeta() {
			p.meta += n
		}
		var fa *fileAgg
		if s.File >= 0 {
			fa = p.files[s.File]
			if fa == nil {
				fa = newFileAgg(s.File)
				p.files[s.File] = fa
			}
			fa.ranks[s.Rank] = true
			var dsum int64
			for j := s.Lo; j < s.Hi; j++ {
				dsum += c.End[j] - c.Start[j]
			}
			fa.ioDur += time.Duration(dsum)
		}
		acc := p.perRank[s.Rank]
		if acc == nil {
			acc = &rankAcc{}
			p.perRank[s.Rank] = acc
		}
		switch op {
		case trace.OpRead:
			var spanBytes int64
			for j := s.Lo; j < s.Hi; {
				sz := c.Size[j]
				dsum := c.End[j] - c.Start[j]
				j2 := j + 1
				for j2 < s.Hi && c.Size[j2] == sz {
					dsum += c.End[j2] - c.Start[j2]
					j2++
				}
				cnt := int64(j2 - j)
				spanBytes += sz * cnt
				p.readHist.AddRun(sz, cnt, time.Duration(dsum))
				acc.rDur += dsum
				j = j2
			}
			p.readBytes += spanBytes
			p.readTL.AddRuns(c.Start, c.End, c.Size, s.Lo, s.Hi)
			acc.rBytes += spanBytes
			if fa != nil {
				fa.bytesRead += spanBytes
				fa.readerRanks[s.Rank] = true
				fa.readerNodes[s.Node] = true
				fa.readerApps[s.App] = true
				fa.dataOps += n
			}
		case trace.OpWrite:
			var spanBytes int64
			for j := s.Lo; j < s.Hi; {
				sz := c.Size[j]
				dsum := c.End[j] - c.Start[j]
				j2 := j + 1
				for j2 < s.Hi && c.Size[j2] == sz {
					dsum += c.End[j2] - c.Start[j2]
					j2++
				}
				cnt := int64(j2 - j)
				spanBytes += sz * cnt
				p.writeHist.AddRun(sz, cnt, time.Duration(dsum))
				acc.wDur += dsum
				j = j2
			}
			p.writeBytes += spanBytes
			p.writeTL.AddRuns(c.Start, c.End, c.Size, s.Lo, s.Hi)
			acc.wBytes += spanBytes
			if fa != nil {
				fa.bytesWritten += spanBytes
				fa.writerRanks[s.Rank] = true
				fa.writerNodes[s.Node] = true
				fa.writerApps[s.App] = true
				fa.dataOps += n
			}
		case trace.OpOpen:
			if fa != nil {
				fa.opens += n
				fa.metaOps += n
			}
		default:
			if fa != nil {
				fa.metaOps += n
			}
		}
	}
}

func (a *analysis) jobConfig() JobConfigEntity {
	m := a.tr.Meta
	return JobConfigEntity{
		Nodes:           m.Nodes,
		CPUCoresPerNode: m.CoresPerNode,
		GPUsPerNode:     m.GPUsPerNode,
		NodeLocalBBDir:  m.NodeLocalDir,
		SharedBBDir:     m.SharedBBDir,
		PFSDir:          m.PFSDir,
		JobTime:         m.JobTimeLimit,
	}
}

func pcts(data, meta int64) (float64, float64) {
	total := data + meta
	if total == 0 {
		return 0, 0
	}
	return float64(data) / float64(total), float64(meta) / float64(total)
}

// interfaceName maps the dominant library of a row set to the table name.
// Library counts are walked in ascending enum order, so a count tie
// deterministically picks the lower-level library.
func interfaceName(counts *[8]int64) string {
	best := trace.LibNone
	var bestN int64 = -1
	for lib := int(trace.LibNone) + 1; lib < len(counts); lib++ {
		if counts[lib] > bestN {
			best, bestN = trace.Lib(lib), counts[lib]
		}
	}
	if bestN <= 0 {
		return "none"
	}
	if best == trace.LibHDF5 {
		return "HDF5 (MPI-IO)"
	}
	return best.String()
}

func (a *analysis) apps() []AppEntity {
	order := make([]int32, 0, len(a.appTallies))
	for app := range a.appTallies {
		order = append(order, app)
	}
	sort.Slice(order, func(x, y int) bool { return order[x] < order[y] })

	var out []AppEntity
	for _, app := range order {
		t := a.appTallies[app]
		dPct, mPct := pcts(t.data, t.meta)
		fpp, shared := a.fileSplitForApp(app)
		out = append(out, AppEntity{
			Name: a.tr.AppName(app),
			// Processes counts every rank that emitted any event for the
			// app, including pure compute ranks (the paper's per-app process
			// count) — gathered in pass 1 rather than by rescanning here.
			Processes:   a.appRanks[app],
			ProcDep:     a.procDep(app),
			FPPFiles:    fpp,
			SharedFiles: shared,
			IOBytes:     t.bytes,
			DataOpsPct:  dPct,
			MetaOpsPct:  mPct,
			Interface:   interfaceName(&t.libs),
			Runtime:     time.Duration(t.maxE - t.minS),
		})
	}
	return out
}

// fileSplitForApp counts FPP vs shared files among files the app touched.
func (a *analysis) fileSplitForApp(app int32) (fpp, shared int) {
	for _, fa := range a.fileAgg {
		if !fa.readerApps[app] && !fa.writerApps[app] {
			continue
		}
		if len(fa.ranks) == 1 {
			fpp++
		} else {
			shared++
		}
	}
	return
}

// procDep classifies the dominant process/data relationship of an app.
func (a *analysis) procDep(app int32) ProcDepKind {
	var solo, singleWriter, sharedRead, pipeline int
	for _, fa := range a.fileAgg {
		if !fa.readerApps[app] && !fa.writerApps[app] {
			continue
		}
		switch {
		case len(fa.ranks) == 1:
			solo++
		case len(fa.writerRanks) == 1 && len(fa.ranks) > 1:
			singleWriter++
		case len(fa.writerRanks) == 0 && len(fa.readerRanks) > 1:
			sharedRead++
		default:
			pipeline++
		}
	}
	max, kind := solo, DepFilePerProcess
	if singleWriter > max {
		max, kind = singleWriter, DepSingleWriter
	}
	if sharedRead > max {
		max, kind = sharedRead, DepSharedRead
	}
	if pipeline > max {
		kind = DepPipeline
	}
	return kind
}

func (a *analysis) workflow(apps []AppEntity) WorkflowEntity {
	dPct, mPct := pcts(a.primData, a.primMeta)
	var fpp, shared int
	for _, fa := range a.fileAgg {
		if len(fa.ranks) == 1 {
			fpp++
		} else {
			shared++
		}
	}
	ranksPerNode := 0
	if a.tr.Meta.Nodes > 0 {
		ranksPerNode = a.tr.Meta.Ranks / a.tr.Meta.Nodes
	}
	gpus := 0
	if a.gpuUsed {
		gpus = a.tr.Meta.GPUsPerNode
	}
	crossRAW := false
	for _, fa := range a.fileAgg {
		if len(fa.writerNodes) == 0 || len(fa.readerNodes) == 0 {
			continue
		}
		for rn := range fa.readerNodes {
			if !fa.writerNodes[rn] || len(fa.writerNodes) > 1 {
				crossRAW = true
			}
		}
	}
	return WorkflowEntity{
		CPUCoresUsedPerNode: ranksPerNode,
		GPUsUsedPerNode:     gpus,
		NumApps:             len(apps),
		AppDeps:             a.appDeps(),
		FPPFiles:            fpp,
		SharedFiles:         shared,
		IOBytes:             a.readBytes + a.writeBytes,
		ReadBytes:           a.readBytes,
		WriteBytes:          a.writeBytes,
		DataOpsPct:          dPct,
		MetaOpsPct:          mPct,
		CrossNodeRAW:        crossRAW,
		IOTime:              a.ioTime,
		Runtime:             a.runtime,
	}
}

// appDeps derives the application-level data-dependency edges: consumer
// apps reading files that producer apps wrote.
func (a *analysis) appDeps() []AppDep {
	type key struct{ prod, cons int32 }
	agg := map[key]*AppDep{}
	var order []key
	for _, fa := range a.fileAgg {
		for prod := range fa.writerApps {
			for cons := range fa.readerApps {
				if prod == cons {
					continue
				}
				k := key{prod, cons}
				d := agg[k]
				if d == nil {
					d = &AppDep{
						Producer: a.tr.AppName(prod),
						Consumer: a.tr.AppName(cons),
					}
					agg[k] = d
					order = append(order, k)
				}
				d.Bytes += fa.bytesRead
				d.Files++
			}
		}
	}
	sort.Slice(order, func(x, y int) bool {
		if order[x].prod != order[y].prod {
			return order[x].prod < order[y].prod
		}
		return order[x].cons < order[y].cons
	})
	out := make([]AppDep, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	return out
}

// phases renders the I/O phases pass 3 split the primary rows into
// (Table V).
func (a *analysis) phases() []IOPhaseEntity {
	var out []IOPhaseEntity
	for i, ph := range a.phaseList {
		out = append(out, ph.entity(i))
	}
	return out
}

// phaseLabel renders the paper's "Frequency" attribute: a handful of ops
// per rank prints as "N ops/rank"; dense bursts of small ops are
// "Iterative"; dense bursts of larger ops are "Bulk".
func phaseLabel(opsPerRank float64, granule int64) string {
	switch {
	case opsPerRank <= 1.5:
		return "1 op"
	case opsPerRank <= 16:
		return itoa(int(opsPerRank+0.5)) + " ops/rank"
	case granule > 0 && granule <= 16*1024:
		return "Iterative (" + sizeStr(granule) + ")"
	default:
		return "Bulk (" + sizeStr(granule) + ")"
	}
}

func (a *analysis) highLevel() HighLevelIOEntity {
	// Data representation: dominant dimensionality weighted by file I/O,
	// tallied over sorted dimensionalities so weight ties resolve to the
	// lower dimensionality regardless of map iteration order.
	dims := map[int]int64{}
	for _, fa := range a.fileAgg {
		info := a.tr.Files[fa.id]
		if info.NDims > 0 {
			dims[info.NDims] += fa.bytesRead + fa.bytesWritten + 1
		}
	}
	dimOrder := make([]int, 0, len(dims))
	for d := range dims {
		dimOrder = append(dimOrder, d)
	}
	sort.Ints(dimOrder)
	bestDim, bestW := 0, int64(-1)
	for _, d := range dimOrder {
		if dims[d] > bestW {
			bestDim, bestW = d, dims[d]
		}
	}
	repr := "unknown"
	if bestDim > 0 {
		repr = itoa(bestDim) + "D"
	}
	return HighLevelIOEntity{
		DataRepr: repr,
		Granularity: Granularity{
			Read:  a.primSizes[0].dominant(),
			Write: a.primSizes[1].dominant(),
		},
		AccessPattern: a.primStreams.pattern(),
		DataDist:      a.dataDist(),
	}
}

func (a *analysis) dataDist() stats.DistKind {
	var values []float64
	for _, s := range a.tr.Samples {
		values = append(values, s.Values...)
	}
	return stats.FitDistribution(values)
}

func (a *analysis) middleware() MiddlewareIOEntity {
	// POSIX-visible rows (selected by the fused scan): what reaches
	// storage after middleware.
	ranksPerNode := 0
	if a.tr.Meta.Nodes > 0 {
		ranksPerNode = a.tr.Meta.Ranks / a.tr.Meta.Nodes
	}
	extra := a.tr.Meta.CoresPerNode - ranksPerNode
	if extra < 0 {
		extra = 0
	}
	return MiddlewareIOEntity{
		ExtraIOCoresPerNode: extra,
		Granularity: Granularity{
			Read:  a.posixSizes[0].dominant(),
			Write: a.posixSizes[1].dominant(),
		},
		MemPerNodeGB:  a.tr.Meta.MemPerNodeGB,
		AccessPattern: a.posixStreams.pattern(),
	}
}

func (a *analysis) storageEntities() (NodeLocalEntity, SharedStorageEntity) {
	var nl NodeLocalEntity
	var sh SharedStorageEntity
	nl.Dir = a.tr.Meta.NodeLocalDir
	sh.Dir = a.tr.Meta.PFSDir
	if cfg := a.opt.Storage; cfg != nil {
		nl.ParallelOps = cfg.NodeLocalParallel
		nl.CapacityBytes = cfg.NodeLocalCapacity
		nl.MaxBWPerNode = cfg.NodeLocalBW
		sh.ParallelServers = cfg.PFSServers
		sh.CapacityBytes = cfg.PFSCapacity
		sh.MaxBW = cfg.PFSServerBW * int64(cfg.PFSServers)
	}
	return nl, sh
}

func (a *analysis) dataset() DatasetEntity {
	formats := map[string]int64{}
	var totalSize int64
	var dataFileSize, metaFileSize int64
	for _, fa := range a.fileAgg {
		info := a.tr.Files[fa.id]
		formats[info.Format]++
		totalSize += info.Size
		if info.Size >= 1<<20 {
			if info.Size > dataFileSize {
				dataFileSize = info.Size
			}
		} else if info.Size > metaFileSize {
			metaFileSize = info.Size
		}
	}
	bestFmt, bestN := "", int64(-1)
	for f, n := range formats {
		if n > bestN || (n == bestN && f > bestFmt) {
			bestFmt, bestN = f, n
		}
	}
	dPct, mPct := pcts(a.primData, a.primMeta)
	var io int64
	for _, fa := range a.fileAgg {
		io += fa.bytesRead + fa.bytesWritten
	}
	return DatasetEntity{
		Format:       bestFmt,
		SizeBytes:    totalSize,
		NumFiles:     len(a.fileAgg),
		IOBytes:      io,
		IOTime:       a.ioTime,
		DataOpsPct:   dPct,
		MetaOpsPct:   mPct,
		DataFileSize: dataFileSize,
		MetaFileSize: metaFileSize,
		DataDist:     a.dataDist(),
	}
}

// fileEntity reports the representative data file: the one with the
// highest I/O volume, volume ties breaking to the lowest file ID (the
// first such file recorded) so the pick is deterministic.
func (a *analysis) fileEntity() FileEntity {
	ids := make([]int32, 0, len(a.fileAgg))
	for f := range a.fileAgg {
		ids = append(ids, f)
	}
	sort.Slice(ids, func(x, y int) bool { return ids[x] < ids[y] })
	var best *fileAgg
	for _, f := range ids {
		fa := a.fileAgg[f]
		if best == nil || fa.bytesRead+fa.bytesWritten > best.bytesRead+best.bytesWritten {
			best = fa
		}
	}
	if best == nil {
		return FileEntity{}
	}
	info := a.tr.Files[best.id]
	dPct, mPct := pcts(best.dataOps, best.metaOps)
	enc := ""
	if info.Format == "fits" {
		enc = "FITS"
	}
	return FileEntity{
		Path:       info.Path,
		Format:     info.Format,
		SizeBytes:  info.Size,
		IOBytes:    best.bytesRead + best.bytesWritten,
		IOTime:     best.ioDur,
		DataOpsPct: dPct,
		MetaOpsPct: mPct,
		Attrs: FileFormatAttrs{
			Chunked:   false,
			NDatasets: 1,
			NDims:     info.NDims,
			DataType:  info.DataType,
			Encoding:  enc,
		},
	}
}

// figure assembles the per-workload figure panels from the fused scan's
// accumulators (histograms, timelines, per-rank bandwidth, top flows).
func (a *analysis) figure() FigureData {
	fig := FigureData{
		ReadHist:  a.readHist,
		WriteHist: a.writeHist,
		ReadTL:    a.readTL,
		WriteTL:   a.writeTL,
	}

	// Per-rank achieved bandwidth (Figure 2c), ranks ascending.
	rankOrder := make([]int32, 0, len(a.perRank))
	for r := range a.perRank {
		rankOrder = append(rankOrder, r)
	}
	sort.Slice(rankOrder, func(x, y int) bool { return rankOrder[x] < rankOrder[y] })
	for _, r := range rankOrder {
		acc := a.perRank[r]
		rb := RankBandwidth{Rank: r}
		if acc.rDur > 0 {
			rb.ReadBW = float64(acc.rBytes) / (float64(acc.rDur) / float64(time.Second))
		}
		if acc.wDur > 0 {
			rb.WriteBW = float64(acc.wBytes) / (float64(acc.wDur) / float64(time.Second))
		}
		fig.RankBW = append(fig.RankBW, rb)
	}

	// Dependency panel: highest-volume files.
	flows := make([]*fileAgg, 0, len(a.fileAgg))
	for _, fa := range a.fileAgg {
		flows = append(flows, fa)
	}
	sort.Slice(flows, func(x, y int) bool {
		bx := flows[x].bytesRead + flows[x].bytesWritten
		by := flows[y].bytesRead + flows[y].bytesWritten
		if bx != by {
			return bx > by
		}
		return flows[x].id < flows[y].id
	})
	if len(flows) > a.opt.TopFlows {
		flows = flows[:a.opt.TopFlows]
	}
	for _, fa := range flows {
		fig.TopFlows = append(fig.TopFlows, FileFlow{
			Path:         a.tr.Files[fa.id].Path,
			WriterRanks:  len(fa.writerRanks),
			ReaderRanks:  len(fa.readerRanks),
			BytesWritten: fa.bytesWritten,
			BytesRead:    fa.bytesRead,
			Opens:        fa.opens,
		})
	}
	return fig
}

// itoa forwards to util.go's formatter.
func itoa(n int) string { return intToString(n) }
