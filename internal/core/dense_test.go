package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"vani/internal/colstore"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// smallWorkload runs a built-in workload at test scale.
func smallWorkload(t *testing.T, w workloads.Workload, scale float64) *trace.Trace {
	t.Helper()
	spec := w.DefaultSpec()
	spec.Nodes = 2
	spec.RanksPerNode = min(spec.RanksPerNode, 4)
	spec.Scale = scale
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatalf("Run(%s): %v", w.Name(), err)
	}
	return res.Trace
}

// evenRanks is a rank filter keeping every other rank the header declares,
// so filtered tables are selection-backed.
func evenRanks(tr *trace.Trace) trace.Filter {
	var f trace.Filter
	for r := int32(0); r < int32(tr.Meta.Ranks); r += 2 {
		f.Ranks = append(f.Ranks, r)
	}
	return f
}

// TestScanPassesMatchReference holds passes 1 and 2 to the row-at-a-time
// reference on the chunk-edge synthetic trace and four workload traces,
// over in-memory, planned and filtered block tables, compressed-domain
// kernels on and off, and sequential, fixed and NumCPU parallelism.
func TestScanPassesMatchReference(t *testing.T) {
	defer colstore.SetKernelsEnabled(true)
	cosmo := workloads.NewCosmoFlow()
	cosmo.GPUPerFile = 50 * time.Millisecond
	traces := []struct {
		name string
		tr   *trace.Trace
	}{
		{"post", postTrace()},
		{"hacc", smallWorkload(t, workloads.NewHACC(), 0.02)},
		{"montage-mpi", smallWorkload(t, workloads.NewMontageMPI(), 0.05)},
		{"cosmoflow", smallWorkload(t, cosmo, 0.002)},
		// Every pegasus task is its own process, so ranks run past Meta.Ranks.
		{"montage-pegasus", smallWorkload(t, workloads.NewMontagePegasus(), 0.02)},
	}
	dir := t.TempDir()
	var served, filteredServed, fallback int64
	for _, tc := range traces {
		br := openBlocks(t, dir, tc.name, tc.tr)
		filter := evenRanks(tc.tr)
		ref := referenceScan(tc.tr.Events, DefaultOptions().TimelineBins)
		fref := referenceScan(trace.FilterEvents(tc.tr.Events, filter), DefaultOptions().TimelineBins)
		for _, kernels := range []bool{true, false} {
			colstore.SetKernelsEnabled(kernels)
			for _, par := range []int{1, 2, runtime.NumCPU()} {
				var stats colstore.ScanStats
				planned, err := colstore.FromBlocksSpec(br, par, colstore.ScanSpec{}, &stats)
				if err != nil {
					t.Fatal(err)
				}
				filtered, err := colstore.FromBlocksSpec(br, par, colstore.ScanSpec{Filter: filter}, &stats)
				if err != nil {
					t.Fatal(err)
				}
				for _, tb := range []struct {
					name string
					tb   *colstore.Table
					ref  refScan
				}{
					{"memory", colstore.FromEvents(tc.tr.Events, par), ref},
					{"blocks", planned, ref},
					{"filtered", filtered, fref},
				} {
					where := fmt.Sprintf("%s/%s/kernels=%v/par=%d", tc.name, tb.name, kernels, par)
					opt := DefaultOptions()
					opt.Parallelism = par
					_, a := analyzeInternal(t, tc.tr, tb.tb, opt)
					checkScanAgainstRef(t, where, a, tb.ref)
				}
				sc := stats.Snapshot()
				served += sc.GroupServed
				fallback += sc.GroupFallback
				filteredServed += sc.GroupFilteredServed
			}
		}
	}
	if served == 0 || filteredServed == 0 || fallback == 0 {
		t.Errorf("key spans served %d chunk passes (%d filtered chunks), fell back on %d: both paths must run",
			served, filteredServed, fallback)
	}
}

// badIDTrace is postTrace with one event naming an id its header does not
// declare.
func badIDTrace(set func(e *trace.Event, tr *trace.Trace)) *trace.Trace {
	tr := postTrace()
	tr.Events = append([]trace.Event(nil), tr.Events...)
	set(&tr.Events[colstore.ChunkRows+100], tr)
	return tr
}

// TestOutOfRangeIDsAreErrors: an event whose app, file or rank lies outside
// the header's Apps, Files or Meta.Ranks fails the analysis with an error
// wrapping trace.ErrBadFormat — on in-memory and planned tables, with
// kernels on and off — instead of indexing a dense accumulator out of
// range.
func TestOutOfRangeIDsAreErrors(t *testing.T) {
	defer colstore.SetKernelsEnabled(true)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		set  func(e *trace.Event, tr *trace.Trace)
	}{
		{"file", func(e *trace.Event, tr *trace.Trace) { e.File = int32(len(tr.Files) + 5) }},
		{"file-neg", func(e *trace.Event, tr *trace.Trace) { e.File = -2 }},
		{"app", func(e *trace.Event, tr *trace.Trace) { e.App = int32(len(tr.Apps)) }},
		{"rank", func(e *trace.Event, tr *trace.Trace) { e.Rank = 1<<31 - 1 }},
	} {
		tr := badIDTrace(tc.set)
		br := openBlocks(t, dir, tc.name, tr)
		for _, kernels := range []bool{true, false} {
			colstore.SetKernelsEnabled(kernels)
			planned, err := colstore.FromBlocksSpec(br, 2, colstore.ScanSpec{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for tname, tb := range map[string]*colstore.Table{
				"memory": colstore.FromEvents(tr.Events, 2),
				"blocks": planned,
			} {
				opt := DefaultOptions()
				opt.Parallelism = 2
				c, err := AnalyzeTableContext(context.Background(), tr, tb, opt)
				if !errors.Is(err, trace.ErrBadFormat) || c != nil {
					t.Errorf("%s/%s kernels=%v: got (%v, %v), want a trace.ErrBadFormat error", tc.name, tname, kernels, c != nil, err)
				}
			}
		}
		if c := Analyze(tr, DefaultOptions()); c != nil {
			t.Errorf("%s: Analyze returned a characterization for an out-of-range id", tc.name)
		}
	}
}

// TestHostileHeaderRejectedBeforeAllocating: a header claiming 2^31-1 ranks
// over ten events, or an app table times a file table past the bound, is
// rejected up front, without allocating accumulators proportional to the
// claim.
func TestHostileHeaderRejectedBeforeAllocating(t *testing.T) {
	tr := trace.NewTracer()
	tr.SetMeta(trace.Meta{Workload: "hostile", Nodes: 1, Ranks: 1<<31 - 1})
	app, file := tr.AppID("a"), tr.FileID("/f")
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * time.Millisecond
		tr.Record(trace.Event{Level: trace.LevelPosix, Op: trace.OpWrite, App: app, File: file,
			Rank: int32(i), Size: 4096, Start: at, End: at + time.Microsecond})
	}
	hdr := tr.Finish()
	tb := colstore.FromEvents(hdr.Events, 1)
	wide := *hdr
	wide.Meta.Ranks = 16
	wide.Apps = make([]string, 600)
	wide.Files = make([]trace.FileInfo, 60_000) // 600 × 60,001 level cells × 2 B > 64 MiB
	for name, h := range map[string]*trace.Trace{"ranks": hdr, "apps×files": &wide} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := AnalyzeTable(h, tb, DefaultOptions())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, trace.ErrBadFormat) || c != nil {
			t.Fatalf("%s: got (%v, %v), want a trace.ErrBadFormat error", name, c != nil, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting the header allocated %d bytes", name, grew)
		}
	}
	// The same claim at a machine's real size is admitted: a whole-Summit
	// job (4,608 nodes × 42 ranks).
	hdr.Meta.Ranks = 4608 * 42
	if _, err := AnalyzeTable(hdr, tb, DefaultOptions()); err != nil {
		t.Errorf("whole-Summit header rejected: %v", err)
	}
}

// highCardTrace has 200,000 ranks and 150,000 files, both above 2^17.
// Every rank writes one file at the POSIX level; a tenth of them also go
// through MPI-IO, so those files' primary level is the middleware one, and
// the first 50,000 files are shared by two ranks on different nodes.
func highCardTrace() *trace.Trace {
	const ranks, files = 200_000, 150_000
	tr := &trace.Trace{
		Meta:  trace.Meta{Workload: "highcard", Nodes: ranks / 40, CoresPerNode: 40, Ranks: ranks},
		Apps:  []string{"sim", "post"},
		Files: make([]trace.FileInfo, files),
	}
	for i := range tr.Files {
		tr.Files[i] = trace.FileInfo{Path: fmt.Sprintf("/p/f%06d", i), Format: "bin", NDims: 1 + i%3}
	}
	for r := int32(0); r < ranks; r++ {
		at := time.Duration(r) * time.Microsecond
		e := trace.Event{Level: trace.LevelPosix, Lib: trace.LibPosix, Op: trace.OpWrite,
			Rank: r, Node: r / 40, App: r % 2, File: r % files, Size: 4096 << (r % 3),
			Start: at, End: at + 700*time.Nanosecond}
		if r%10 == 0 {
			mid := e
			mid.Level, mid.Lib = trace.LevelMiddleware, trace.LibMPIIO
			tr.Events = append(tr.Events, mid)
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// TestHighCardinalityMatchesReference runs the dense scan at whole-machine
// cardinality, in memory and from blocks, at parallelism 1 and 2.
func TestHighCardinalityMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("high-cardinality trace")
	}
	tr := highCardTrace()
	ref := referenceScan(tr.Events, DefaultOptions().TimelineBins)
	br := openBlocks(t, t.TempDir(), "highcard", tr)
	for _, par := range []int{1, 2} {
		planned, err := colstore.FromBlocksSpec(br, par, colstore.ScanSpec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for tname, tb := range map[string]*colstore.Table{
			"memory": colstore.FromEvents(tr.Events, par),
			"blocks": planned,
		} {
			opt := DefaultOptions()
			opt.Parallelism = par
			c, a := analyzeInternal(t, tr, tb, opt)
			checkScanAgainstRef(t, fmt.Sprintf("%s/par=%d", tname, par), a, ref)
			if c.Dataset.NumFiles != len(tr.Files) || len(c.Figure.RankBW) != tr.Meta.Ranks {
				t.Errorf("%s/par=%d: %d files and %d ranks reported, want %d and %d", tname, par,
					c.Dataset.NumFiles, len(c.Figure.RankBW), len(tr.Files), tr.Meta.Ranks)
			}
		}
	}
}
