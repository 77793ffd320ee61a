package core

import (
	"context"
	"sort"
	"time"

	"vani/internal/colstore"
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
// the reference semantics every pushed-down scan must reproduce. It returns
// nil when the trace cannot be characterized: an event names an app, file
// or rank its header does not declare, or the header declares more than
// the analyzer's dense accumulators admit (AnalyzeContext returns the
// error).
func Analyze(tr *trace.Trace, opt Options) *Characterization {
	c, _ := AnalyzeContext(context.Background(), tr, opt)
	return c
}

// AnalyzeContext is Analyze with cancellation: the chunk-parallel scan
// workers observe ctx, so a canceled or timed-out caller aborts mid-scan.
// Besides ctx.Err(), it fails only with the errors AnalyzeTableContext
// documents for the trace's ids.
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
// abort was a cancellation. A table row naming an app, file or rank outside
// the header's Apps, Files and Meta.Ranks, or a header declaring more than
// the dense accumulators admit, fails with an error wrapping
// trace.ErrBadFormat.
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

	// Filled by the fused scan (passes 1 and 2, dense.go).
	dims dims
	pass2
	runtime  time.Duration
	gpuUsed  bool
	appRanks []int      // by app id: ranks that emitted any event
	touched  []*fileAgg // files with primary I/O, id ascending
	sels     []chunkSel // per-chunk primary and POSIX row selections

	// Filled by pass 3 (post.go).
	ioTime       time.Duration
	phaseList    []*phase
	primSizes    [2]sizeCounts // read, write
	posixSizes   [2]sizeCounts
	primStreams  streams
	posixStreams streams
	appTallies   []*appTally // by app id; nil = no primary I/O

	pass1Time, pass2Time time.Duration
}

type fileAgg struct {
	id           int32
	ranks        idSet
	writerRanks  idSet
	readerRanks  idSet
	writerNodes  idSet
	readerNodes  idSet
	writerApps   idSet
	readerApps   idSet
	bytesRead    int64
	bytesWritten int64
	opens        int64
	dataOps      int64
	metaOps      int64
	ioDur        time.Duration
}

func newFileAgg(id int32) *fileAgg { return &fileAgg{id: id} }

func (fa *fileAgg) merge(o *fileAgg) {
	fa.ranks.merge(&o.ranks)
	fa.writerRanks.merge(&o.writerRanks)
	fa.readerRanks.merge(&o.readerRanks)
	fa.writerNodes.merge(&o.writerNodes)
	fa.readerNodes.merge(&o.readerNodes)
	fa.writerApps.merge(&o.writerApps)
	fa.readerApps.merge(&o.readerApps)
	fa.bytesRead += o.bytesRead
	fa.bytesWritten += o.bytesWritten
	fa.opens += o.opens
	fa.dataOps += o.dataOps
	fa.metaOps += o.metaOps
	fa.ioDur += o.ioDur
}

// addIDs records a primary row's rank and, for a read or a write, its
// reader or writer rank, node and app.
func (fa *fileAgg) addIDs(op trace.Op, rank, node, app int32) {
	fa.ranks.add(rank)
	switch op {
	case trace.OpRead:
		fa.readerRanks.add(rank)
		fa.readerNodes.add(node)
		fa.readerApps.add(app)
	case trace.OpWrite:
		fa.writerRanks.add(rank)
		fa.writerNodes.add(node)
		fa.writerApps.add(app)
	}
}

// idSet is a set of int32 ids that stays inline while it holds one id —
// the common case at scale, where a file-per-process file has one rank,
// node and app — and moves to a map from the second distinct id on. The
// representation is canonical (one id inline, or every id in the map), so
// equal sets compare equal.
type idSet struct {
	one  int32
	has1 bool
	more map[int32]struct{}
}

func (s *idSet) add(id int32) {
	switch {
	case s.has1 && id == s.one:
	case s.has1:
		s.more = map[int32]struct{}{s.one: {}, id: {}}
		s.one, s.has1 = 0, false
	case s.more != nil:
		s.more[id] = struct{}{}
	default:
		s.one, s.has1 = id, true
	}
}

func (s *idSet) len() int {
	if s.has1 {
		return 1
	}
	return len(s.more)
}

func (s *idSet) has(id int32) bool {
	if s.has1 {
		return id == s.one
	}
	_, ok := s.more[id]
	return ok
}

// each calls fn for every member, in no particular order.
func (s *idSet) each(fn func(id int32)) {
	if s.has1 {
		fn(s.one)
	}
	for id := range s.more {
		fn(id)
	}
}

func (s *idSet) merge(o *idSet) { o.each(s.add) }

// rankAcc is one rank's primary read/write bytes and durations; hit marks
// a rank with any primary I/O row.
type rankAcc struct {
	rBytes, wBytes int64
	rDur, wDur     int64
	hit            bool
}

func (r *rankAcc) merge(o *rankAcc) {
	r.rBytes += o.rBytes
	r.wBytes += o.wBytes
	r.rDur += o.rDur
	r.wDur += o.wDur
	r.hit = r.hit || o.hit
}

func (a *analysis) run() (*Characterization, error) {
	if err := a.scan(); err != nil {
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
	dist := a.dataDist()
	c.HighLevel = a.highLevel(dist)
	c.Middleware = a.middleware()
	c.NodeLocal, c.Shared = a.storageEntities()
	c.Dataset = a.dataset(dist)
	c.File = a.fileEntity()
	c.Figure = a.figure()
	return c, nil
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
	var out []AppEntity
	for app, t := range a.appTallies {
		if t == nil {
			continue
		}
		id := int32(app)
		dPct, mPct := pcts(t.data, t.meta)
		fpp, shared := a.fileSplitForApp(id)
		out = append(out, AppEntity{
			Name: a.tr.AppName(id),
			// Processes counts every rank that emitted any event for the
			// app, including pure compute ranks (the paper's per-app process
			// count) — gathered in pass 1 rather than by rescanning here.
			Processes:   a.appRanks[app],
			ProcDep:     a.procDep(id),
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
	for _, fa := range a.touched {
		if !fa.readerApps.has(app) && !fa.writerApps.has(app) {
			continue
		}
		if fa.ranks.len() == 1 {
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
	for _, fa := range a.touched {
		if !fa.readerApps.has(app) && !fa.writerApps.has(app) {
			continue
		}
		switch {
		case fa.ranks.len() == 1:
			solo++
		case fa.writerRanks.len() == 1 && fa.ranks.len() > 1:
			singleWriter++
		case fa.writerRanks.len() == 0 && fa.readerRanks.len() > 1:
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
	for _, fa := range a.touched {
		if fa.ranks.len() == 1 {
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
	for _, fa := range a.touched {
		if fa.writerNodes.len() == 0 {
			continue
		}
		fa.readerNodes.each(func(rn int32) {
			crossRAW = crossRAW || !fa.writerNodes.has(rn) || fa.writerNodes.len() > 1
		})
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
	for _, fa := range a.touched {
		fa.writerApps.each(func(prod int32) {
			fa.readerApps.each(func(cons int32) {
				if prod == cons {
					return
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
			})
		})
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

func (a *analysis) highLevel(dist stats.DistKind) HighLevelIOEntity {
	// Data representation: dominant dimensionality weighted by file I/O,
	// tallied over sorted dimensionalities so weight ties resolve to the
	// lower dimensionality regardless of map iteration order.
	weight := map[int]int64{}
	for _, fa := range a.touched {
		if nd := a.tr.Files[fa.id].NDims; nd > 0 {
			weight[nd] += fa.bytesRead + fa.bytesWritten + 1
		}
	}
	dimOrder := make([]int, 0, len(weight))
	for d := range weight {
		dimOrder = append(dimOrder, d)
	}
	sort.Ints(dimOrder)
	bestDim, bestW := 0, int64(-1)
	for _, d := range dimOrder {
		if weight[d] > bestW {
			bestDim, bestW = d, weight[d]
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
		DataDist:      dist,
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

func (a *analysis) dataset(dist stats.DistKind) DatasetEntity {
	formats := map[string]int64{}
	var totalSize int64
	var dataFileSize, metaFileSize int64
	for _, fa := range a.touched {
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
	for _, fa := range a.touched {
		io += fa.bytesRead + fa.bytesWritten
	}
	return DatasetEntity{
		Format:       bestFmt,
		SizeBytes:    totalSize,
		NumFiles:     len(a.touched),
		IOBytes:      io,
		IOTime:       a.ioTime,
		DataOpsPct:   dPct,
		MetaOpsPct:   mPct,
		DataFileSize: dataFileSize,
		MetaFileSize: metaFileSize,
		DataDist:     dist,
	}
}

// fileEntity reports the representative data file: the one with the
// highest I/O volume, volume ties breaking to the lowest file ID (the
// first such file recorded) so the pick is deterministic.
func (a *analysis) fileEntity() FileEntity {
	var best *fileAgg
	for _, fa := range a.touched {
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
	for r, acc := range a.perRank {
		if !acc.hit {
			continue
		}
		rb := RankBandwidth{Rank: int32(r)}
		if acc.rDur > 0 {
			rb.ReadBW = float64(acc.rBytes) / (float64(acc.rDur) / float64(time.Second))
		}
		if acc.wDur > 0 {
			rb.WriteBW = float64(acc.wBytes) / (float64(acc.wDur) / float64(time.Second))
		}
		fig.RankBW = append(fig.RankBW, rb)
	}

	// Dependency panel: highest-volume files.
	flows := append([]*fileAgg(nil), a.touched...)
	sort.SliceStable(flows, func(x, y int) bool {
		return flows[x].bytesRead+flows[x].bytesWritten > flows[y].bytesRead+flows[y].bytesWritten
	})
	if len(flows) > a.opt.TopFlows {
		flows = flows[:a.opt.TopFlows]
	}
	for _, fa := range flows {
		fig.TopFlows = append(fig.TopFlows, FileFlow{
			Path:         a.tr.Files[fa.id].Path,
			WriterRanks:  fa.writerRanks.len(),
			ReaderRanks:  fa.readerRanks.len(),
			BytesWritten: fa.bytesWritten,
			BytesRead:    fa.bytesRead,
			Opens:        fa.opens,
		})
	}
	return fig
}

// itoa forwards to util.go's formatter.
func itoa(n int) string { return intToString(n) }
