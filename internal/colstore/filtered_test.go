package colstore

// Selection-backed key spans: filtered chunks carry their block run
// summaries re-cut against the selection vector, so key spans serve
// filtered scans exactly as they do whole blocks — with keys identical to
// the materialized columns, and the filtered-capture and fallback counters
// moving by exact amounts.

import (
	"testing"

	"vani/internal/trace"
)

// assertKeySpansMatchColumns materializes every chunk and checks that the
// key spans tile it and agree with the columns row by row.
func assertKeySpansMatchColumns(t *testing.T, tb *Table) {
	t.Helper()
	for k := 0; k < tb.NumChunks(); k++ {
		spans, ok := tb.ChunkKeySpans(k, nil)
		if !ok {
			t.Fatalf("chunk %d: key spans not served", k)
		}
		c := tb.ChunkAt(k)
		if err := c.Require(trace.AllCols); err != nil {
			t.Fatal(err)
		}
		row := 0
		for _, s := range spans {
			if s.Lo != row {
				t.Fatalf("chunk %d: span starts at %d, want %d (spans must tile)", k, s.Lo, row)
			}
			for j := s.Lo; j < s.Hi; j++ {
				if c.Level[j] != s.Level || c.Rank[j] != s.Rank || c.Node[j] != s.Node ||
					c.App[j] != s.App || c.File[j] != s.File {
					t.Fatalf("chunk %d row %d: key span keys differ from columns", k, j)
				}
			}
			row = s.Hi
		}
		if row != c.N {
			t.Fatalf("chunk %d: spans cover %d rows of %d", k, row, c.N)
		}
	}
}

// TestSelectionBackedKeySpans: a single-dimension rank filter leaves every
// chunk selection-backed; the re-cut run summaries must serve key spans
// that match the materialized filtered columns, across codecs, with the
// filtered-capture counter moving once per chunk.
func TestSelectionBackedKeySpans(t *testing.T) {
	tr := groupTrace(3)
	f := trace.Filter{Ranks: []int32{1, 3, 5}}
	for _, codec := range []trace.CodecMode{
		trace.CodecAuto, trace.CodecForceRLE, trace.CodecForceDict, trace.CodecForceFOR,
	} {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatalf("codec %v: %v", codec, err)
		}
		sc := stats.Snapshot()
		if sc.GroupFilteredServed != int64(tb.NumChunks()) {
			t.Errorf("codec %v: filtered run capture served %d of %d chunks",
				codec, sc.GroupFilteredServed, tb.NumChunks())
		}
		if sc.GroupFilteredFallback != 0 {
			t.Errorf("codec %v: filtered run capture fell back on %d chunks, want 0",
				codec, sc.GroupFilteredFallback)
		}
		assertKeySpansMatchColumns(t, tb)
	}
}

// TestMultiDimFilteredRunCapture: partial multi-dimension filters flow
// their selection spans from the run-intersection kernel into the re-cut
// (no re-derivation from the selection vector), and whole-pass filters
// keep the unfiltered block summaries — both end with key spans serving.
func TestMultiDimFilteredRunCapture(t *testing.T) {
	tr := groupTrace(3)
	t.Run("partial", func(t *testing.T) {
		f := trace.Filter{Ranks: []int32{1, 3, 5}, Ops: trace.OpClassData}
		br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		sc := stats.Snapshot()
		if sc.RunIsectServed == 0 {
			t.Fatal("multi-dimension filter did not take the run-intersection path")
		}
		if sc.GroupFilteredServed != int64(tb.NumChunks()) || sc.GroupFilteredFallback != 0 {
			t.Errorf("filtered run capture served %d / fell back %d over %d chunks",
				sc.GroupFilteredServed, sc.GroupFilteredFallback, tb.NumChunks())
		}
		assertKeySpansMatchColumns(t, tb)
	})
	t.Run("whole-pass", func(t *testing.T) {
		f := trace.Filter{
			Ranks:  []int32{0, 1, 2, 3, 4, 5, 6, 7},
			Levels: []trace.Level{trace.LevelPosix, trace.LevelApp},
		}
		br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		sc := stats.Snapshot()
		if sc.RowsKept != sc.RowsTotal {
			t.Fatalf("kept %d of %d rows, want all", sc.RowsKept, sc.RowsTotal)
		}
		// Every row passed: chunks are whole-block, the unfiltered capture
		// runs and the filtered-capture counters must not move at all.
		if sc.GroupFilteredServed != 0 || sc.GroupFilteredFallback != 0 {
			t.Errorf("whole-pass filter ticked filtered capture (%d served, %d fallback)",
				sc.GroupFilteredServed, sc.GroupFilteredFallback)
		}
		for k := 0; k < tb.NumChunks(); k++ {
			if !tb.ChunkAt(k).HasRuns(ColRank) {
				t.Fatalf("chunk %d: whole-pass filter lost the block run summary", k)
			}
		}
		assertKeySpansMatchColumns(t, tb)
	})
}

// TestCompressedSelMultiSpansMatchSel: the spans the run-intersection
// kernel emits alongside its selection vector are exactly the vector's
// maximal consecutive spans.
func TestCompressedSelMultiSpansMatchSel(t *testing.T) {
	tr := mixedTrace(2*ChunkRows + 901)
	f := trace.Filter{Ranks: []int32{1, 3, 5, 7}, Ops: trace.OpClassData}
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})
	m := f.NewMatcher()
	checked := 0
	for k := 0; k < br.NumBlocks(); k++ {
		bd, err := br.ReadBlock(k)
		if err != nil {
			t.Fatal(err)
		}
		sel, spans, all, ok, eligible := compressedSelMulti(m, m.NeedCols(), bd)
		if !eligible || !ok || all || sel == nil {
			continue
		}
		want := trace.AppendSelSpans(sel, nil)
		if len(spans) != len(want) {
			t.Fatalf("block %d: %d spans for %d maximal runs", k, len(spans), len(want))
		}
		for i := range spans {
			if spans[i] != want[i] {
				t.Fatalf("block %d span %d: %+v, want %+v", k, i, spans[i], want[i])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no block took the partial run-intersection path")
	}
}

// TestGroupFallbackOncePerChunk pins the key-span fallback accounting the
// GroupServed/GroupFallback counters report: a selection-backed chunk with
// no re-cut summary answers each key-span request with exactly one
// fallback tick and no served tick.
func TestGroupFallbackOncePerChunk(t *testing.T) {
	defer SetKernelsEnabled(true)
	tr := groupTrace(3)
	f := trace.Filter{Ranks: []int32{1, 3, 5}}
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})

	t.Run("no-summary", func(t *testing.T) {
		// Scanning with kernels off skips the selection re-cut, so the
		// filtered chunks carry no summaries; with kernels back on, every
		// chunk's key-span request falls back.
		SetKernelsEnabled(false)
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		SetKernelsEnabled(true)
		base := stats.Snapshot()
		for k := 0; k < tb.NumChunks(); k++ {
			if _, ok := tb.ChunkKeySpans(k, nil); ok {
				t.Fatalf("chunk %d: key spans served without a re-cut summary", k)
			}
		}
		sc := stats.Snapshot()
		if d := sc.GroupFallback - base.GroupFallback; d != int64(tb.NumChunks()) {
			t.Errorf("%d chunks ticked %d key-span fallbacks, want one each", tb.NumChunks(), d)
		}
		if d := sc.GroupServed - base.GroupServed; d != 0 {
			t.Errorf("fallback path ticked %d served, want 0", d)
		}
	})
}
