package colstore

import (
	"math/rand"
	"testing"
	"time"

	"vani/internal/trace"
)

// mixedTrace builds a run-structured trace that exercises every predicate
// dimension the compressed kernels serve: ranks, levels and ops all arrive
// in runs (so the cost model picks RLE or dict for them), with sizes and
// offsets varied enough that the value columns stay interesting.
func mixedTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	tr := trace.NewTracer()
	app := tr.AppID("app")
	files := []int32{tr.FileID("/a"), tr.FileID("/b"), tr.FileID("/c")}
	levels := []trace.Level{trace.LevelPosix, trace.LevelMiddleware, trace.LevelApp}
	ops := []trace.Op{trace.OpWrite, trace.OpRead, trace.OpOpen, trace.OpClose}
	var clock time.Duration
	for i := 0; i < n; i++ {
		clock += time.Duration(rng.Intn(90)+1) * time.Nanosecond
		tr.Record(trace.Event{
			Level: levels[i/511%len(levels)], Op: ops[i/257%len(ops)],
			Rank: int32(i / 773 % 16), Node: int32(i / 773 % 16 / 4),
			App: app, File: files[i/1021%len(files)],
			Offset: int64(i) * 512, Size: int64(rng.Intn(1 << 12)),
			Start: clock, End: clock + time.Duration(rng.Intn(40)+1)*time.Nanosecond,
		})
	}
	return tr.Finish()
}

// TestKernelRegistryCaps pins the registry: run-structured codecs serve the
// run/code-domain kernels, FOR serves everything but the predicate paths
// (which dispatch on dict/RLE structure directly) and min/max, raw serves
// nothing.
func TestKernelRegistryCaps(t *testing.T) {
	for _, op := range []KernelOp{KPredicate, KCountEq, KSumEq, KHist, KGroupBy, KKeySpan} {
		for _, codec := range []uint8{trace.SegCodecRLE, trace.SegCodecDict} {
			if !KernelServes(op, codec) {
				t.Errorf("KernelServes(%v, codec %d) = false, want true", op, codec)
			}
		}
		if KernelServes(op, trace.SegCodecRaw) {
			t.Errorf("%v served from raw segments", op)
		}
		if op == KPredicate {
			if KernelServes(op, trace.SegCodecFOR) {
				t.Errorf("%v served from FOR segments", op)
			}
		} else if !KernelServes(op, trace.SegCodecFOR) {
			t.Errorf("KernelServes(%v, FOR) = false, want true", op)
		}
	}
	if !KernelServes(KMinMax, trace.SegCodecFOR) {
		t.Error("KMinMax not served from FOR segments")
	}
	if KernelServes(KMinMax, trace.SegCodecRLE) || KernelServes(KMinMax, trace.SegCodecRaw) {
		t.Error("KMinMax served from a non-FOR codec")
	}
	if KernelServes(KernelOp(-1), trace.SegCodecRLE) || KernelServes(NumKernelOps, 0) {
		t.Error("out-of-range kernel op reported as served")
	}
}

// TestCompressedPredicateMatchesFallback: a filtered planned scan with the
// predicate kernel engaged produces a table row-identical to the same scan
// with kernels disabled, across codecs and filter shapes — including
// filters a served dimension passes for every row (keep stays nil) and
// filters that leave residual dimensions (the time window).
func TestCompressedPredicateMatchesFallback(t *testing.T) {
	defer SetKernelsEnabled(true)
	tr := mixedTrace(2*ChunkRows + 901)
	end := time.Duration(tr.Events[len(tr.Events)-1].Start)
	filters := map[string]trace.Filter{
		"ranks":     {Ranks: []int32{1, 3, 5, 7}},
		"not-zero":  {Ranks: []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		"all-ranks": {Ranks: []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		"levels":    {Levels: []trace.Level{trace.LevelPosix}},
		"ops":       {Ops: trace.OpClassData},
		"combined":  {From: end / 8, To: 3 * end / 4, Ranks: []int32{0, 2, 4, 6}, Ops: trace.OpClassIO},
	}
	codecs := map[string]trace.CodecMode{
		"auto": trace.CodecAuto,
		"rle":  trace.CodecForceRLE,
		"dict": trace.CodecForceDict,
		"v21":  trace.CodecV21,
	}
	for cname, codec := range codecs {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		for fname, f := range filters {
			SetKernelsEnabled(false)
			want, err := FromBlocksSpec(br, 2, ScanSpec{Cols: trace.AllCols, Filter: f}, nil)
			if err != nil {
				t.Fatalf("%s/%s kernels=off: %v", cname, fname, err)
			}
			SetKernelsEnabled(true)
			var stats ScanStats
			got, err := FromBlocksSpec(br, 2, ScanSpec{Cols: trace.AllCols, Filter: f}, &stats)
			if err != nil {
				t.Fatalf("%s/%s kernels=on: %v", cname, fname, err)
			}
			assertTablesEqual(t, want, got)
			served := stats.KernelServed[KPredicate].Load()
			if (cname == "rle" || cname == "dict") && served == 0 {
				t.Errorf("%s/%s: predicate kernel served no blocks on a forced %s log",
					cname, fname, cname)
			}
			if cname == "v21" && served != 0 {
				t.Errorf("%s/%s: predicate kernel claims %d served blocks on a v2.1 log",
					cname, fname, served)
			}
		}
	}
}

// TestChunkKeySpansTileAndMatch: the key-span kernel's spans tile each
// chunk exactly and carry the same keys the materialized columns hold row
// by row.
func TestChunkKeySpansTileAndMatch(t *testing.T) {
	tr := mixedTrace(ChunkRows + 700)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecAuto})
	var stats ScanStats
	tb, err := FromBlocksSpec(br, 1, ScanSpec{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	assertKeySpansMatchColumns(t, tb)
	if stats.KernelServed[KKeySpan].Load() != int64(tb.NumChunks()) {
		t.Errorf("key-span served counter ticked %d times over %d chunks",
			stats.KernelServed[KKeySpan].Load(), tb.NumChunks())
	}
}

// TestColMinMaxMatches: min/max answered from FOR headers equals min/max
// computed from the materialized column, and equals the kernels-off path.
func TestColMinMaxMatches(t *testing.T) {
	defer SetKernelsEnabled(true)
	tr := mixedTrace(2*ChunkRows + 333)
	want := FromTrace(tr)
	brute := func(val func(i int) int64) (int64, int64) {
		mn, mx := val(0), val(0)
		for i := 1; i < want.Len(); i++ {
			v := val(i)
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return mn, mx
	}
	cols := map[trace.ColSet]func(i int) int64{
		trace.ColOffset: want.Offset,
		trace.ColSize:   want.Size,
		trace.ColStart:  want.Start,
		trace.ColEnd:    want.End,
	}
	for _, codec := range []trace.CodecMode{trace.CodecForceFOR, trace.CodecAuto} {
		for _, kernels := range []bool{true, false} {
			SetKernelsEnabled(kernels)
			br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
			var stats ScanStats
			tb, err := FromBlocksSpec(br, 2, ScanSpec{}, &stats)
			if err != nil {
				t.Fatal(err)
			}
			for set, val := range cols {
				wantMin, wantMax := brute(val)
				gotMin, gotMax, err := tb.ColMinMax(2, set)
				if err != nil {
					t.Fatal(err)
				}
				if gotMin != wantMin || gotMax != wantMax {
					t.Fatalf("codec=%v kernels=%v col=%v: ColMinMax=(%d,%d), want (%d,%d)",
						codec, kernels, set, gotMin, gotMax, wantMin, wantMax)
				}
			}
			if codec == trace.CodecForceFOR && kernels && stats.KernelServed[KMinMax].Load() == 0 {
				t.Error("forced-FOR log answered no min/max from segment headers")
			}
			if !kernels && stats.KernelServed[KMinMax].Load() != 0 {
				t.Error("kernels disabled but min/max claims served requests")
			}
		}
	}
}

// TestGroupByColKernelMatches: grouping from run summaries returns the same
// first-encounter key order and ascending row sets as the row loop.
func TestGroupByColKernelMatches(t *testing.T) {
	defer SetKernelsEnabled(true)
	tr := mixedTrace(ChunkRows + 512)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecAuto})
	tb, err := FromBlocksSpec(br, 2, ScanSpec{Cols: trace.AllCols}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []Col{ColRank, ColNode, ColApp, ColFile} {
		SetKernelsEnabled(false)
		want := tb.GroupByCol(2, col)
		SetKernelsEnabled(true)
		got := tb.GroupByCol(2, col)
		if len(want.Keys) != len(got.Keys) {
			t.Fatalf("col=%d: %d keys, want %d", col, len(got.Keys), len(want.Keys))
		}
		for i, k := range want.Keys {
			if got.Keys[i] != k {
				t.Fatalf("col=%d: key order differs at %d: %d vs %d", col, i, got.Keys[i], k)
			}
			wr, gr := want.Groups[k], got.Groups[k]
			if len(wr) != len(gr) {
				t.Fatalf("col=%d key=%d: group size %d, want %d", col, k, len(gr), len(wr))
			}
			for j := range wr {
				if wr[j] != gr[j] {
					t.Fatalf("col=%d key=%d: row %d differs", col, k, j)
				}
			}
		}
	}
}

// TestScanCountersKernelSplit: the snapshot's aggregate served/fallback
// totals equal the per-op sums, and disabling kernels moves every request
// to the fallback side.
func TestScanCountersKernelSplit(t *testing.T) {
	defer SetKernelsEnabled(true)
	tr := mixedTrace(ChunkRows + 100)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceDict})
	f := trace.Filter{Ranks: []int32{0, 1, 2}}

	var on ScanStats
	if _, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &on); err != nil {
		t.Fatal(err)
	}
	s := on.Snapshot()
	var served, fallback int64
	for op := KernelOp(0); op < NumKernelOps; op++ {
		served += s.KernelServed[op]
		fallback += s.KernelFallback[op]
	}
	if s.KernelsServed != served || s.KernelsFallback != fallback {
		t.Fatalf("snapshot totals (%d,%d) != per-op sums (%d,%d)",
			s.KernelsServed, s.KernelsFallback, served, fallback)
	}
	if s.KernelServed[KPredicate] == 0 {
		t.Fatal("dict log served no predicate kernels")
	}

	SetKernelsEnabled(false)
	var off ScanStats
	if _, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &off); err != nil {
		t.Fatal(err)
	}
	so := off.Snapshot()
	if so.KernelsServed != 0 {
		t.Fatalf("kernels disabled but %d requests served", so.KernelsServed)
	}
	if so.KernelFallback[KPredicate] == 0 {
		t.Fatal("kernels disabled but no predicate fallback recorded")
	}
}
