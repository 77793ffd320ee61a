package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"vani/internal/colstore"
	"vani/internal/stats"
	"vani/internal/trace"
)

// refPost is a row-at-a-time reference for the entities pass 3 produces:
// the I/O phases, the I/O-time union, the primary and POSIX granularities,
// the access-pattern step counts and the per-app tallies. It walks the
// event log directly — no chunks, selections, partials or carry-ins — so it
// is the oracle the chunk-parallel pass is held to.
type refPost struct {
	phases               []IOPhaseEntity
	ioTime               time.Duration
	prim, posix          Granularity
	primSeq, primTotal   int64
	posixSeq, posixTotal int64
	apps                 []AppEntity // Name, IOBytes, op mix, Interface, Runtime
}

// refPrimary flags the primary I/O events: those at the app-facing level
// of their (app, file) stream, the lowest Level any I/O event of the stream
// carries.
func refPrimary(evs []trace.Event) []bool {
	type appFileKey struct{ app, file int32 }
	levels := map[appFileKey]trace.Level{}
	for _, e := range evs {
		k := appFileKey{e.App, e.File}
		if lv, ok := levels[k]; e.Op.IsIO() && (!ok || e.Level < lv) {
			levels[k] = e.Level
		}
	}
	prim := make([]bool, len(evs))
	for i, e := range evs {
		prim[i] = e.Op.IsIO() && e.Level == levels[appFileKey{e.App, e.File}]
	}
	return prim
}

func referencePost(tr *trace.Trace, gap time.Duration) refPost {
	evs := tr.Events
	isPrim := refPrimary(evs)
	var prim, posix []trace.Event
	for i, e := range evs {
		if e.Op.IsIO() && e.Level == trace.LevelPosix {
			posix = append(posix, e)
		}
		if isPrim[i] {
			prim = append(prim, e)
		}
	}
	var r refPost
	r.prim = Granularity{Read: refDominant(prim, trace.OpRead), Write: refDominant(prim, trace.OpWrite)}
	r.posix = Granularity{Read: refDominant(posix, trace.OpRead), Write: refDominant(posix, trace.OpWrite)}
	r.primSeq, r.primTotal = refSteps(prim)
	r.posixSeq, r.posixTotal = refSteps(posix)

	// Phases and the interval union run in Start order (stable).
	byStart := append([]trace.Event(nil), prim...)
	sort.SliceStable(byStart, func(x, y int) bool { return byStart[x].Start < byStart[y].Start })
	if len(byStart) > 0 {
		curS, curE := byStart[0].Start, byStart[0].End
		for _, e := range byStart[1:] {
			if e.Start > curE {
				r.ioTime += curE - curS
				curS, curE = e.Start, e.End
			} else if e.End > curE {
				curE = e.End
			}
		}
		r.ioTime += curE - curS
	}
	lo := 0
	var curEnd time.Duration
	for i, e := range byStart {
		if i > lo && e.Start-curEnd > gap {
			r.phases = append(r.phases, refPhase(len(r.phases), byStart[lo:i]))
			lo = i
		}
		if e.End > curEnd {
			curEnd = e.End
		}
	}
	if len(byStart) > 0 {
		r.phases = append(r.phases, refPhase(len(r.phases), byStart[lo:]))
	}

	// Per-app tallies, apps ascending.
	byApp := map[int32][]trace.Event{}
	for _, e := range prim {
		byApp[e.App] = append(byApp[e.App], e)
	}
	ids := make([]int32, 0, len(byApp))
	for id := range byApp {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(x, y int) bool { return ids[x] < ids[y] })
	for _, id := range ids {
		var data, meta, bytes int64
		var libs [8]int64
		minS, maxE := time.Duration(1<<63-1), time.Duration(0)
		for _, e := range byApp[id] {
			if e.Op.IsData() {
				data++
				bytes += e.Size
			} else {
				meta++
			}
			minS, maxE = min(minS, e.Start), max(maxE, e.End)
			libs[e.Lib]++
		}
		d, m := pcts(data, meta)
		r.apps = append(r.apps, AppEntity{
			Name: tr.AppName(id), IOBytes: bytes, DataOpsPct: d, MetaOpsPct: m,
			Interface: interfaceName(&libs), Runtime: maxE - minS,
		})
	}
	return r
}

func refPhase(idx int, evs []trace.Event) IOPhaseEntity {
	var data, meta, bytes, reads, writes int64
	ranks := map[int32]bool{}
	minS, maxE := evs[0].Start, time.Duration(0)
	for _, e := range evs {
		switch {
		case e.Op == trace.OpRead:
			reads++
		case e.Op == trace.OpWrite:
			writes++
		}
		if e.Op.IsData() {
			data++
			bytes += e.Size
		} else {
			meta++
		}
		ranks[e.Rank] = true
		minS, maxE = min(minS, e.Start), max(maxE, e.End)
	}
	opsPerRank := float64(len(evs)) / float64(len(ranks))
	granule := refDominant(evs, trace.OpRead)
	if g := refDominant(evs, trace.OpWrite); granule == 0 || (g != 0 && data > 0 && writes > reads) {
		granule = g
	}
	d, m := pcts(data, meta)
	return IOPhaseEntity{
		Index: idx, Start: minS, End: maxE, IOBytes: bytes,
		DataOpsPct: d, MetaOpsPct: m, OpsPerRank: opsPerRank, Granule: granule,
		Frequency: phaseLabel(opsPerRank, granule), Runtime: maxE - minS,
	}
}

// refDominant is the most frequent positive size among op's rows, ties to
// the larger size.
func refDominant(evs []trace.Event, op trace.Op) int64 {
	counts := map[int64]int{}
	for _, e := range evs {
		if e.Op == op && e.Size > 0 {
			counts[e.Size]++
		}
	}
	var best int64
	bestN := 0
	for sz, n := range counts {
		if n > bestN || (n == bestN && sz > best) {
			best, bestN = sz, n
		}
	}
	return best
}

// refSteps counts sequential and total consecutive data accesses per
// (file, rank) stream in row order.
func refSteps(evs []trace.Event) (seq, total int64) {
	type key struct{ file, rank int32 }
	last := map[key]int64{}
	for _, e := range evs {
		if !e.Op.IsData() || e.File < 0 {
			continue
		}
		k := key{e.File, e.Rank}
		if prev, ok := last[k]; ok {
			total++
			if e.Offset >= prev {
				seq++
			}
		}
		last[k] = e.Offset
	}
	return
}

// refScan is the row-at-a-time reference for passes 1 and 2: the primary
// row flags (the level resolution), the per-file aggregates with their
// rank/node/app sets, per-rank bandwidth tallies, the size histograms and
// timelines, the primary data/meta counts, per-app rank counts, GPU use and
// runtime. Like refPost it walks the event log directly — no chunks, spans,
// dense arrays or per-worker partials.
type refScan struct {
	prim                []bool
	files               map[int32]*fileAgg
	perRank             map[int32]rankAcc
	readHist, writeHist stats.SizeHistogram
	readTL, writeTL     *stats.Timeline
	data, meta          int64
	appRanks            map[int32]int
	gpu                 bool
	runtime             time.Duration
}

func referenceScan(evs []trace.Event, bins int) refScan {
	r := refScan{
		prim:     refPrimary(evs),
		files:    map[int32]*fileAgg{},
		perRank:  map[int32]rankAcc{},
		appRanks: map[int32]int{},
	}
	appRanks := map[[2]int32]bool{}
	for _, e := range evs {
		r.runtime = max(r.runtime, e.End)
		r.gpu = r.gpu || e.Op == trace.OpGPUCompute
		if k := [2]int32{e.App, e.Rank}; !appRanks[k] {
			appRanks[k] = true
			r.appRanks[e.App]++
		}
	}
	span := r.runtime
	if span <= 0 {
		span = time.Second
	}
	r.readTL, r.writeTL = stats.NewTimeline(span, bins), stats.NewTimeline(span, bins)
	for i, e := range evs {
		if !r.prim[i] {
			continue
		}
		dur := e.End - e.Start
		if e.Op.IsData() {
			r.data++
		} else {
			r.meta++
		}
		var fa *fileAgg
		if e.File >= 0 {
			if fa = r.files[e.File]; fa == nil {
				fa = newFileAgg(e.File)
				r.files[e.File] = fa
			}
			fa.ranks.add(e.Rank)
			fa.ioDur += dur
		}
		acc := r.perRank[e.Rank]
		acc.hit = true
		switch e.Op {
		case trace.OpRead:
			r.readHist.Add(e.Size, dur)
			r.readTL.Add(e.Start, e.End, e.Size)
			acc.rBytes += e.Size
			acc.rDur += int64(dur)
			if fa != nil {
				fa.bytesRead += e.Size
				fa.dataOps++
				fa.readerRanks.add(e.Rank)
				fa.readerNodes.add(e.Node)
				fa.readerApps.add(e.App)
			}
		case trace.OpWrite:
			r.writeHist.Add(e.Size, dur)
			r.writeTL.Add(e.Start, e.End, e.Size)
			acc.wBytes += e.Size
			acc.wDur += int64(dur)
			if fa != nil {
				fa.bytesWritten += e.Size
				fa.dataOps++
				fa.writerRanks.add(e.Rank)
				fa.writerNodes.add(e.Node)
				fa.writerApps.add(e.App)
			}
		default:
			if fa != nil {
				fa.metaOps++
				if e.Op == trace.OpOpen {
					fa.opens++
				}
			}
		}
		r.perRank[e.Rank] = acc
	}
	return r
}

// checkScanAgainstRef compares the analyzer's pass 1 and 2 state with the
// reference, row flags first: a wrong level resolution shows there before
// it skews every aggregate.
func checkScanAgainstRef(t *testing.T, where string, a *analysis, ref refScan) {
	t.Helper()
	var prim []bool
	for k := range a.sels {
		for j := 0; j < a.tb.ChunkAt(k).N; j++ {
			prim = append(prim, a.sels[k].prim[j>>6]&(1<<(j&63)) != 0)
		}
	}
	if !reflect.DeepEqual(prim, ref.prim) {
		t.Errorf("%s: primary row flags differ from the reference level resolution", where)
	}
	nfiles := 0
	for id, fa := range a.files {
		want := ref.files[int32(id)]
		if fa != nil {
			nfiles++
		}
		if (fa == nil) != (want == nil) || (fa != nil && !reflect.DeepEqual(fa, want)) {
			t.Errorf("%s: file %d aggregate\n got %+v\nwant %+v", where, id, fa, want)
		}
	}
	if nfiles != len(ref.files) || len(a.touched) != nfiles {
		t.Errorf("%s: %d files aggregated (%d reported), want %d", where, nfiles, len(a.touched), len(ref.files))
	}
	nranks := 0
	for r, acc := range a.perRank {
		if acc.hit {
			nranks++
		}
		if want := ref.perRank[int32(r)]; acc != want {
			t.Errorf("%s: rank %d tallies %+v, want %+v", where, r, acc, want)
		}
	}
	if nranks != len(ref.perRank) {
		t.Errorf("%s: %d ranks with primary I/O, want %d", where, nranks, len(ref.perRank))
	}
	if !reflect.DeepEqual(a.readHist, ref.readHist) || !reflect.DeepEqual(a.writeHist, ref.writeHist) {
		t.Errorf("%s: size histograms differ", where)
	}
	if !reflect.DeepEqual(a.readTL, ref.readTL) || !reflect.DeepEqual(a.writeTL, ref.writeTL) {
		t.Errorf("%s: timelines differ", where)
	}
	if a.primData != ref.data || a.primMeta != ref.meta {
		t.Errorf("%s: %d data / %d meta primary ops, want %d / %d", where, a.primData, a.primMeta, ref.data, ref.meta)
	}
	for app, n := range a.appRanks {
		if n != ref.appRanks[int32(app)] {
			t.Errorf("%s: app %d has %d ranks, want %d", where, app, n, ref.appRanks[int32(app)])
		}
	}
	if a.gpuUsed != ref.gpu || a.runtime != ref.runtime {
		t.Errorf("%s: gpu=%v runtime=%v, want gpu=%v runtime=%v", where, a.gpuUsed, a.runtime, ref.gpu, ref.runtime)
	}
}

// postTrace lays out a trace of five full chunks plus a tail, one event per
// microsecond in row order, built so pass 3's chunk edges are exercised:
//   - a 5 ms pause right before row ChunkRows puts a phase boundary exactly
//     on chunk 1's first row (the phase gap used is 1 ms);
//   - chunk 2 holds no primary rows (compute spans and the POSIX rows
//     beneath app "sim"'s MPI-IO stream), and one long write early in
//     chunk 1 ends after the 5 ms pause before chunk 4, so the phase opened
//     on chunk 1 spans chunks 1-4 only through the running max End carried
//     in past chunks 2 and 3;
//   - ranks issue runs of 8 rows that straddle every chunk edge; offsets
//     rewind at chunk 1's start, so the (file, rank) stream crossing the
//     chunk 0/1 edge steps backwards there, and the streams crossing the
//     later edges step to an equal offset.
func postTrace() *trace.Trace {
	const C = colstore.ChunkRows
	tr := trace.NewTracer()
	tr.SetMeta(trace.Meta{Workload: "post", Nodes: 2, Ranks: 8, CoresPerNode: 8})
	sim, viz := tr.AppID("sim"), tr.AppID("viz")
	shared, own := tr.FileID("/p/shared.h5"), tr.FileID("/p/own.bin")
	n := 5*C + 777
	var t time.Duration
	for i := 0; i < n; i++ {
		t += time.Microsecond
		if i == 3000 || i == C || i == 4*C || i == 4*C+C/2 {
			t += 5 * time.Millisecond
		}
		rank := int32((i + 4) / 8 % 8)
		e := trace.Event{Rank: rank, Node: rank / 4, Start: t, End: t + 700*time.Nanosecond}
		size := int64(4096)
		if (i+4)/64%5 == 0 {
			size = 1 << 20
		}
		off := int64((i+4)/64) * size
		if i >= C && i < C+64 {
			off = 0
		}
		switch {
		case i >= 2*C && i < 3*C:
			if i%3 == 0 {
				e.App, e.File, e.Level, e.Lib, e.Op = sim, shared, trace.LevelPosix, trace.LibPosix, trace.OpWrite
				e.Offset, e.Size = off, size
			} else {
				e.App, e.File, e.Level, e.Op = sim, -1, trace.LevelCompute, trace.OpCompute
			}
		case rank < 4:
			// sim: MPI-IO over the shared file, POSIX beneath on the last
			// two rows of each rank's run.
			e.App, e.File, e.Lib = sim, shared, trace.LibMPIIO
			e.Level, e.Op, e.Offset, e.Size = trace.LevelMiddleware, trace.OpWrite, off, size
			if i%16 == 0 {
				e.Op, e.Offset, e.Size = trace.OpOpen, 0, 0
			} else if (i+4)%8 >= 6 {
				e.Level, e.Lib = trace.LevelPosix, trace.LibPosix
			}
		default:
			// viz: POSIX reads of its own file, a stat now and then.
			e.App, e.File, e.Lib, e.Level = viz, own, trace.LibPosix, trace.LevelPosix
			e.Op, e.Offset, e.Size = trace.OpRead, off, size
			if i%29 == 0 {
				e.Op, e.Offset, e.Size = trace.OpStat, 0, 0
			}
		}
		if i == C+6 {
			e.End = e.Start + 60*time.Millisecond
		}
		tr.Record(e)
	}
	return tr.Finish()
}

// unsortedTrace reverses the row order of postTrace inside windows of 97
// rows, so primary Start decreases within and across chunks and pass 3
// must take its sorted fallback.
func unsortedTrace() *trace.Trace {
	tr := postTrace()
	evs := append([]trace.Event(nil), tr.Events...)
	for lo := 0; lo < len(evs); lo += 97 {
		hi := min(lo+97, len(evs))
		for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
			evs[i], evs[j] = evs[j], evs[i]
		}
	}
	tr.Events = evs
	return tr
}

// edgeUnsortedTrace moves chunk 1's first row back into the pause between
// the first two phases, where in Start order it opens a phase of its own:
// every chunk is Start-sorted on its own, and only the summaries' first and
// last Start reveal that the table is not.
func edgeUnsortedTrace() *trace.Trace {
	tr := postTrace()
	evs := append([]trace.Event(nil), tr.Events...)
	e := &evs[colstore.ChunkRows]
	e.Start, e.End = 5*time.Millisecond, 5*time.Millisecond+700*time.Nanosecond
	tr.Events = evs
	return tr
}

// interleavedTrace gives postTrace's rank 0 — whose runs straddle every
// chunk edge — three files in rotation, so its (file, rank) streams
// interleave within a chunk and across chunk edges, and renames every other
// rank-7 row to rank 11, past Meta.Ranks.
func interleavedTrace() *trace.Trace {
	tr := postTrace()
	shared := int32(len(tr.Files)) - 2 // FileID order: shared, then own
	files := []int32{shared}
	for _, name := range []string{"/p/x1.h5", "/p/x2.h5"} {
		fi := tr.Files[shared]
		fi.Path = name
		tr.Files = append(tr.Files, fi)
		files = append(files, int32(len(tr.Files)-1))
	}
	evs := append([]trace.Event(nil), tr.Events...)
	for i := range evs {
		e := &evs[i]
		if e.Rank == 0 && e.File == shared {
			e.File = files[i%3]
		}
		if e.Rank == 7 && i%2 == 0 {
			e.Rank = 11
		}
	}
	tr.Events = evs
	return tr
}

// analyzeInternal runs the analyzer and returns its internal state too.
func analyzeInternal(t *testing.T, hdr *trace.Trace, tb *colstore.Table, opt Options) (*Characterization, *analysis) {
	t.Helper()
	opt.fill()
	a := &analysis{ctx: context.Background(), tr: hdr, tb: tb, opt: opt, par: opt.Parallelism}
	c, err := a.run()
	if err != nil {
		t.Fatal(err)
	}
	return c, a
}

func stepCounts(ss *streams) (seq, total int64) {
	for _, st := range ss.recs {
		seq += st.seq
		total += st.total
	}
	return
}

// TestPostPassesMatchReference holds pass 3 to the row-at-a-time reference
// on traces whose phases, streams and selections cross chunk edges, for
// in-memory and planned block tables, compressed-domain kernels on and off,
// and sequential, fixed and NumCPU parallelism.
func TestPostPassesMatchReference(t *testing.T) {
	defer colstore.SetKernelsEnabled(true)
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		tr      *trace.Trace
		ordered bool
	}{
		{"sorted", postTrace(), true},
		{"unsorted", unsortedTrace(), false},
		{"edge-unsorted", edgeUnsortedTrace(), false},
		{"interleaved", interleavedTrace(), true},
	} {
		const gap = time.Millisecond
		ref := referencePost(tc.tr, gap)
		if tc.ordered && len(ref.phases) != 4 {
			t.Fatalf("%s: reference found %d phases, the layout has 4", tc.name, len(ref.phases))
		}
		br := openBlocks(t, dir, tc.name, tc.tr)
		for _, kernels := range []bool{true, false} {
			colstore.SetKernelsEnabled(kernels)
			for _, par := range []int{1, 2, runtime.NumCPU()} {
				var stats colstore.ScanStats
				planned, err := colstore.FromBlocksSpec(br, par, colstore.ScanSpec{}, &stats)
				if err != nil {
					t.Fatal(err)
				}
				tables := map[string]*colstore.Table{
					"memory": colstore.FromEvents(tc.tr.Events, par),
					"blocks": planned,
				}
				for tname, tb := range tables {
					where := tc.name + "/" + tname
					if !kernels {
						where += "/kernels-off"
					}
					where += "/par=" + itoa(par)
					opt := DefaultOptions()
					opt.PhaseGap = gap
					opt.Parallelism = par
					c, a := analyzeInternal(t, tc.tr, tb, opt)
					checkAgainstRef(t, where, c, a, ref)
				}
				if served := stats.Snapshot().GroupServed; kernels != (served > 0) {
					t.Errorf("%s kernels=%v par=%d: %d chunk passes served by key spans", tc.name, kernels, par, served)
				}
			}
		}
	}
}

// openBlocks writes tr as a VANITRC2 log under dir and opens its block
// reader, closed when the test ends.
func openBlocks(t *testing.T, dir, name string, tr *trace.Trace) *trace.FileBlockReader {
	t.Helper()
	path := filepath.Join(dir, name+".trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteV2(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	br, err := trace.OpenBlockReader(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { br.Close() })
	return br
}

func checkAgainstRef(t *testing.T, where string, c *Characterization, a *analysis, ref refPost) {
	t.Helper()
	if !reflect.DeepEqual(c.Phases, ref.phases) {
		t.Errorf("%s: phases differ\n got %+v\nwant %+v", where, c.Phases, ref.phases)
	}
	if c.Workflow.IOTime != ref.ioTime || c.Dataset.IOTime != ref.ioTime {
		t.Errorf("%s: I/O time %v / %v, want %v", where, c.Workflow.IOTime, c.Dataset.IOTime, ref.ioTime)
	}
	if c.HighLevel.Granularity != ref.prim || c.Middleware.Granularity != ref.posix {
		t.Errorf("%s: granularities %+v / %+v, want %+v / %+v", where,
			c.HighLevel.Granularity, c.Middleware.Granularity, ref.prim, ref.posix)
	}
	if seq, total := stepCounts(&a.primStreams); seq != ref.primSeq || total != ref.primTotal {
		t.Errorf("%s: primary streams %d/%d sequential, want %d/%d", where, seq, total, ref.primSeq, ref.primTotal)
	}
	if seq, total := stepCounts(&a.posixStreams); seq != ref.posixSeq || total != ref.posixTotal {
		t.Errorf("%s: POSIX streams %d/%d sequential, want %d/%d", where, seq, total, ref.posixSeq, ref.posixTotal)
	}
	if len(c.Apps) != len(ref.apps) {
		t.Fatalf("%s: %d apps, want %d", where, len(c.Apps), len(ref.apps))
	}
	for i, want := range ref.apps {
		got := c.Apps[i]
		if got.Name != want.Name || got.IOBytes != want.IOBytes || got.DataOpsPct != want.DataOpsPct ||
			got.MetaOpsPct != want.MetaOpsPct || got.Interface != want.Interface || got.Runtime != want.Runtime {
			t.Errorf("%s: app %s = %+v, want %+v", where, want.Name, got, want)
		}
	}
}

// TestPostTraceLayout pins the chunk-edge cases postTrace is built to hold,
// so a change to the generator cannot silently drop one.
func TestPostTraceLayout(t *testing.T) {
	const C = colstore.ChunkRows
	tr := postTrace()
	tb := colstore.FromEvents(tr.Events, 1)
	if tb.NumChunks() < 4 {
		t.Fatalf("%d chunks, want more than 3", tb.NumChunks())
	}
	opt := DefaultOptions()
	opt.PhaseGap = time.Millisecond
	opt.Parallelism = 1
	c, a := analyzeInternal(t, tr, tb, opt)
	if a.sels[2].nPrim != 0 || a.sels[2].nPosix == 0 {
		t.Errorf("chunk 2 has %d primary and %d POSIX rows, want none and some", a.sels[2].nPrim, a.sels[2].nPosix)
	}
	if len(c.Phases) != 4 {
		t.Fatalf("%d phases, want 4", len(c.Phases))
	}
	if got, want := c.Phases[2].Start, tr.Events[C].Start; got != want {
		t.Errorf("phase 2 starts at %v, want chunk 1's first row at %v", got, want)
	}
	if got, min := c.Phases[2].End, tr.Events[4*C].Start; got < min {
		t.Errorf("phase 2 ends at %v, before chunk 4 begins at %v", got, min)
	}
	if time.Duration(a.sels[3].maxEnd) >= tr.Events[4*C].Start {
		t.Error("chunk 3's own rows bridge the pause before chunk 4; only the carry-in should")
	}
	for k := range a.sels {
		if a.sels[k].unsorted {
			t.Errorf("chunk %d: primary Start not sorted", k)
		}
	}
	ref := referencePost(tr, opt.PhaseGap)
	if ref.primSeq == ref.primTotal {
		t.Error("no decreasing offset step in the primary streams")
	}
	u := unsortedTrace()
	_, ua := analyzeInternal(t, u, colstore.FromEvents(u.Events, 1), opt)
	sorted := true
	for k := range ua.sels {
		sorted = sorted && !ua.sels[k].unsorted
	}
	if sorted {
		t.Error("unsortedTrace left every chunk's primary Start sorted")
	}
	e := edgeUnsortedTrace()
	_, ea := analyzeInternal(t, e, colstore.FromEvents(e.Events, 1), opt)
	for k := range ea.sels {
		if ea.sels[k].unsorted {
			t.Errorf("edgeUnsortedTrace: chunk %d is unsorted on its own", k)
		}
	}
	// Phase 2's parts in chunks 1 and 3 share ranks, so its merge must
	// union rank lists rather than concatenate them.
	chunkRanks := func(k int) map[int32]bool {
		rs := map[int32]bool{}
		c := tb.ChunkAt(k)
		for j := 0; j < c.N; j++ {
			if a.sels[k].prim[j>>6]&(1<<(j&63)) != 0 {
				rs[c.Rank[j]] = true
			}
		}
		return rs
	}
	shared := false
	r3 := chunkRanks(3)
	for r := range chunkRanks(1) {
		shared = shared || r3[r]
	}
	if !shared {
		t.Error("phase 2's parts in chunks 1 and 3 share no rank")
	}
	il := interleavedTrace()
	edgeFiles := map[int32]bool{}
	past := false
	for i, e := range il.Events {
		if e.Rank == 0 && i >= C-8 && i < C+8 {
			edgeFiles[e.File] = true
		}
		past = past || int(e.Rank) >= il.Meta.Ranks
	}
	if len(edgeFiles) < 3 || !past {
		t.Errorf("interleavedTrace: rank 0 touches %d files across the chunk 0/1 edge (want 3), a rank past Meta.Ranks: %v",
			len(edgeFiles), past)
	}
	crossed := false
	for k := 1; k < len(a.sels); k++ {
		if ea.sels[k].firstS < ea.sels[k-1].lastS {
			crossed = true
		}
	}
	if !crossed {
		t.Error("edgeUnsortedTrace: no chunk starts before its predecessor ends")
	}
}
