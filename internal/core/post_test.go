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

func referencePost(tr *trace.Trace, gap time.Duration) refPost {
	evs := tr.Events
	type appFileKey struct{ app, file int32 }
	levels := map[appFileKey]trace.Level{}
	for _, e := range evs {
		k := appFileKey{e.App, e.File}
		if lv, ok := levels[k]; e.Op.IsIO() && (!ok || e.Level < lv) {
			levels[k] = e.Level
		}
	}
	var prim, posix []trace.Event
	for _, e := range evs {
		if !e.Op.IsIO() {
			continue
		}
		if e.Level == trace.LevelPosix {
			posix = append(posix, e)
		}
		if e.Level == levels[appFileKey{e.App, e.File}] {
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
	for _, st := range ss.m {
		seq += st.seq
		total += st.total
	}
	return
}

// TestPostPassesMatchReference holds pass 3 to the row-at-a-time reference
// on traces whose phases, streams and selections cross chunk edges, for
// in-memory and planned block tables, grouped execution on and off, and
// sequential, fixed and NumCPU parallelism.
func TestPostPassesMatchReference(t *testing.T) {
	defer colstore.SetGroupedKernelsEnabled(true)
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		tr      *trace.Trace
		ordered bool
	}{
		{"sorted", postTrace(), true},
		{"unsorted", unsortedTrace(), false},
		{"edge-unsorted", edgeUnsortedTrace(), false},
	} {
		const gap = time.Millisecond
		ref := referencePost(tc.tr, gap)
		if tc.ordered && len(ref.phases) != 4 {
			t.Fatalf("%s: reference found %d phases, the layout has 4", tc.name, len(ref.phases))
		}
		path := filepath.Join(dir, tc.name+".trc")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteV2(f, tc.tr); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		br, err := trace.OpenBlockReader(path)
		if err != nil {
			t.Fatal(err)
		}
		defer br.Close()

		for _, grouped := range []bool{true, false} {
			colstore.SetGroupedKernelsEnabled(grouped)
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
					if grouped {
						where += "/grouped"
					}
					where += "/par=" + itoa(par)
					opt := DefaultOptions()
					opt.PhaseGap = gap
					opt.Parallelism = par
					c, a := analyzeInternal(t, tc.tr, tb, opt)
					checkAgainstRef(t, where, c, a, ref)
				}
				if served := stats.Snapshot().GroupServed; grouped != (served > 0) {
					t.Errorf("%s grouped=%v par=%d: %d chunk passes served by key spans", tc.name, grouped, par, served)
				}
			}
		}
	}
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
