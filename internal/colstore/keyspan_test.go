package colstore

import (
	"testing"
	"time"

	"vani/internal/trace"
)

// groupTrace builds a multi-block trace shaped like the real analyzer
// workload: op alternates every event while the five key columns arrive
// in runs, and the per-block file dictionaries differ — blocks 0 and 1
// touch disjoint file sets, block 2 overlaps block 1 — with a sprinkling
// of File == -1 rows.
func groupTrace(nblocks int) *trace.Trace {
	tr := trace.NewTracer()
	apps := []int32{tr.AppID("sim"), tr.AppID("post")}
	files := []int32{
		tr.FileID("/a"), tr.FileID("/b"), // block 0
		tr.FileID("/c"), tr.FileID("/d"), // block 1
	}
	blockFiles := [][]int32{
		{files[0], files[1]},
		{files[2], files[3]},
		{files[1], files[2]}, // overlaps both earlier dictionaries
	}
	ops := []trace.Op{trace.OpWrite, trace.OpRead}
	var clock time.Duration
	n := nblocks * ChunkRows
	for i := 0; i < n; i++ {
		blk := i / ChunkRows
		bf := blockFiles[blk%len(blockFiles)]
		file := bf[i/601%len(bf)]
		if i%97 == 0 {
			file = -1 // no-file rows
		}
		clock += time.Nanosecond
		rank := int32(i / 501 % 8)
		tr.Record(trace.Event{
			Level: trace.LevelPosix, Op: ops[i%len(ops)],
			Rank: rank, Node: rank / 4,
			App: apps[blk%len(apps)], File: file,
			Offset: int64(i) * 256, Size: int64(i%7) * 1024,
			Start: clock, End: clock + time.Nanosecond,
		})
	}
	return tr.Finish()
}

// TestKeySpansServeFORCodedKeys: with every segment forced to FOR, the
// key-span kernel still tiles chunks from coalesced base+offset runs.
func TestKeySpansServeFORCodedKeys(t *testing.T) {
	tr := groupTrace(2)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceFOR})
	var stats ScanStats
	tb, err := FromBlocksSpec(br, 1, ScanSpec{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	assertKeySpansMatchColumns(t, tb)
	if served := stats.KernelServed[KKeySpan].Load(); served == 0 {
		t.Error("KKeySpan served counter did not move on FOR-coded keys")
	}
}

// TestKeySpansFireWhereSpansDont: with op alternating every event, spans
// that also held op constant would be one row long; key spans — op
// excluded — tile every chunk with multi-row spans and carry the same keys
// the materialized columns hold.
func TestKeySpansFireWhereSpansDont(t *testing.T) {
	tr := groupTrace(2)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecAuto})
	var stats ScanStats
	tb, err := FromBlocksSpec(br, 1, ScanSpec{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	assertKeySpansMatchColumns(t, tb)
	for k := 0; k < tb.NumChunks(); k++ {
		c := tb.ChunkAt(k)
		spans, _ := tb.ChunkKeySpans(k, nil)
		if len(spans)*8 > c.N {
			t.Errorf("chunk %d: %d key spans over %d rows", k, len(spans), c.N)
		}
		for j := 1; j < c.N; j++ {
			if c.Op[j] == c.Op[j-1] {
				t.Fatalf("chunk %d row %d: op does not alternate", k, j)
			}
		}
	}
}

// TestRunIntersectionSelection: multi-dimension filters over level/op/rank
// select rows straight from intersected run summaries — row-identical to
// the kernels-off scan, with the run-intersection counters ticking, and
// whole-pass multi-dimension filters keeping whole blocks without a
// selection vector.
func TestRunIntersectionSelection(t *testing.T) {
	defer SetKernelsEnabled(true)
	tr := mixedTrace(2*ChunkRows + 901)
	filters := map[string]trace.Filter{
		"ranks-ops":        {Ranks: []int32{1, 3, 5, 7}, Ops: trace.OpClassData},
		"levels-ops":       {Levels: []trace.Level{trace.LevelPosix}, Ops: trace.OpClassMeta},
		"ranks-levels-ops": {Ranks: []int32{0, 2, 4}, Levels: []trace.Level{trace.LevelPosix, trace.LevelApp}, Ops: trace.OpClassIO},
		"whole-pass": {
			Ranks:  []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
			Levels: []trace.Level{trace.LevelPosix, trace.LevelMiddleware, trace.LevelApp},
		},
	}
	for _, codec := range []trace.CodecMode{trace.CodecAuto, trace.CodecForceRLE, trace.CodecForceDict} {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		for fname, f := range filters {
			SetKernelsEnabled(false)
			want, err := FromBlocksSpec(br, 2, ScanSpec{Cols: trace.AllCols, Filter: f}, nil)
			if err != nil {
				t.Fatalf("%s kernels=off: %v", fname, err)
			}
			SetKernelsEnabled(true)
			var stats ScanStats
			got, err := FromBlocksSpec(br, 2, ScanSpec{Cols: trace.AllCols, Filter: f}, &stats)
			if err != nil {
				t.Fatalf("%s kernels=on: %v", fname, err)
			}
			assertTablesEqual(t, want, got)
			if served := stats.RunIsectServed.Load(); served == 0 {
				t.Errorf("codec %v %s: run-intersection served no blocks", codec, fname)
			}
			if fname == "whole-pass" && stats.RowsKept.Load() != stats.RowsTotal.Load() {
				t.Errorf("%s: kept %d of %d rows, want all", fname,
					stats.RowsKept.Load(), stats.RowsTotal.Load())
			}
		}
	}
}
