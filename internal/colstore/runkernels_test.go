package colstore

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vani/internal/trace"
)

// runsTrace builds a trace whose key columns arrive in long runs — the
// rank-major ordering the tracer's k-way merge produces — so the v2.2 cost
// model picks RLE for them.
func runsTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	tr := trace.NewTracer()
	app := tr.AppID("app")
	files := []int32{tr.FileID("/a"), tr.FileID("/b")}
	var clock time.Duration
	for i := 0; i < n; i++ {
		clock += time.Duration(rng.Intn(100)+1) * time.Nanosecond
		tr.Record(trace.Event{
			Level: trace.LevelPosix, Op: trace.OpWrite,
			Rank: int32(i / 997 % 32), Node: int32(i / 997 % 32 / 4),
			App: app, File: files[i/(n/2+1)],
			Size: int64(rng.Intn(1 << 10)), Start: clock,
			End: clock + time.Duration(rng.Intn(50)+1)*time.Nanosecond,
		})
	}
	return tr.Finish()
}

// bruteCounts computes the reference histogram / per-value size sums by
// plain row iteration over an eagerly built table.
func bruteCounts(tb *Table, key func(i int) int32) (map[int32]int64, map[int32]int64) {
	hist := make(map[int32]int64)
	sizes := make(map[int32]int64)
	for i := 0; i < tb.Len(); i++ {
		v := key(i)
		hist[v]++
		sizes[v] += tb.Size(i)
	}
	return hist, sizes
}

// TestRunKernelsMatchRowIteration: CountEq, SumSizeEq and ValueHist return
// exactly the row-iteration answers, with and without run summaries, at
// every parallelism.
func TestRunKernelsMatchRowIteration(t *testing.T) {
	tr := runsTrace(2*ChunkRows + 500)
	want := FromTrace(tr)
	wantHist, wantSizes := bruteCounts(want, want.Rank)

	for _, codec := range []trace.CodecMode{trace.CodecAuto, trace.CodecV21} {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		tb, err := FromBlocksSpec(br, 4, ScanSpec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		anyRuns := false
		tb.ForEachChunk(func(c *Chunk) {
			if c.HasRuns(ColRank) {
				anyRuns = true
			}
		})
		if codec == trace.CodecAuto && !anyRuns {
			t.Fatal("v2.2 auto captured no rank run summaries on a run-structured trace")
		}
		if codec == trace.CodecV21 && anyRuns {
			t.Fatal("v2.1 log produced run summaries")
		}

		for _, par := range []int{1, 4} {
			hist, err := tb.ValueHist(par, ColRank)
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) != len(wantHist) {
				t.Fatalf("codec=%v par=%d: hist has %d keys, want %d", codec, par, len(hist), len(wantHist))
			}
			for v, n := range wantHist {
				if hist[v] != n {
					t.Fatalf("codec=%v par=%d: hist[%d]=%d, want %d", codec, par, v, hist[v], n)
				}
				cnt, err := tb.CountEq(par, ColRank, v)
				if err != nil {
					t.Fatal(err)
				}
				if cnt != n {
					t.Fatalf("codec=%v par=%d: CountEq(%d)=%d, want %d", codec, par, v, cnt, n)
				}
				sum, err := tb.SumSizeEq(par, ColRank, v)
				if err != nil {
					t.Fatal(err)
				}
				if sum != wantSizes[v] {
					t.Fatalf("codec=%v par=%d: SumSizeEq(%d)=%d, want %d", codec, par, v, sum, wantSizes[v])
				}
			}
			// A value absent from the table counts zero and reads no sizes.
			if cnt, _ := tb.CountEq(par, ColRank, 999); cnt != 0 {
				t.Fatalf("CountEq(999)=%d, want 0", cnt)
			}
			if sum, _ := tb.SumSizeEq(par, ColRank, 999); sum != 0 {
				t.Fatalf("SumSizeEq(999)=%d, want 0", sum)
			}
		}
	}
}

// TestRunKernelsOtherKeyCols: run summaries and fallbacks agree for every
// groupable key column, not just rank.
func TestRunKernelsOtherKeyCols(t *testing.T) {
	tr := runsTrace(ChunkRows + 300)
	want := FromTrace(tr)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecAuto})
	tb, err := FromBlocksSpec(br, 2, ScanSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[Col]func(i int) int32{
		ColNode: want.Node,
		ColApp:  want.App,
		ColFile: want.File,
	}
	for col, key := range keys {
		wantHist, wantSizes := bruteCounts(want, key)
		hist, err := tb.ValueHist(2, col)
		if err != nil {
			t.Fatal(err)
		}
		for v, n := range wantHist {
			if hist[v] != n {
				t.Fatalf("col=%d: hist[%d]=%d, want %d", col, v, hist[v], n)
			}
			sum, err := tb.SumSizeEq(2, col, v)
			if err != nil {
				t.Fatal(err)
			}
			if sum != wantSizes[v] {
				t.Fatalf("col=%d: SumSizeEq(%d)=%d, want %d", col, v, sum, wantSizes[v])
			}
		}
		if len(hist) != len(wantHist) {
			t.Fatalf("col=%d: hist has %d keys, want %d", col, len(hist), len(wantHist))
		}
	}
}

// TestScanStatsCodecMix: a planned scan over a v2.2 log tallies one decoded
// segment per (block, column) into the codec-mix counters; v2.1 logs tally
// nothing.
func TestScanStatsCodecMix(t *testing.T) {
	tr := runsTrace(2 * ChunkRows)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecAuto})
	var stats ScanStats
	if _, err := FromBlocksSpec(br, 2, ScanSpec{Cols: trace.AllCols}, &stats); err != nil {
		t.Fatal(err)
	}
	s := stats.Snapshot()
	total := s.SegRaw + s.SegRLE + s.SegDict + s.SegFOR
	if want := s.BlocksTotal * trace.NumCols; total != want {
		t.Fatalf("codec-mix total %d, want %d (blocks=%d)", total, want, s.BlocksTotal)
	}
	if s.SegRLE == 0 {
		t.Fatal("run-structured trace decoded no RLE segments")
	}

	br = blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecV21})
	var stats21 ScanStats
	if _, err := FromBlocksSpec(br, 2, ScanSpec{Cols: trace.AllCols}, &stats21); err != nil {
		t.Fatal(err)
	}
	s21 := stats21.Snapshot()
	if n := s21.SegRaw + s21.SegRLE + s21.SegDict + s21.SegFOR; n != 0 {
		t.Fatalf("v2.1 log tallied %d segments, want 0", n)
	}
}

// TestCaptureRunsAllOrNothing: a block whose rank column alternates per
// row (over the one-run-per-four-rows cap) leaves its chunk no summary on
// any column and, once the worker's scratch is warm, allocates nothing; a
// block whose five key columns are under the cap keeps, per column, exactly
// the column's own run list, in one allocation.
func TestCaptureRunsAllOrNothing(t *testing.T) {
	over := trace.NewTracer()
	app, file := over.AppID("app"), over.FileID("/f")
	for i := 0; i < ChunkRows; i++ {
		over.Record(trace.Event{Level: trace.LevelPosix, Op: trace.OpWrite, Rank: int32(i % 2),
			App: app, File: file, Size: 8, Start: time.Duration(i), End: time.Duration(i + 1)})
	}
	for _, tc := range []struct {
		name   string
		tr     *trace.Trace
		served bool
		allocs float64
	}{
		{"rank-over-cap", over.Finish(), false, 0},
		{"under-cap", groupTrace(1), true, 1},
	} {
		for _, codec := range []trace.CodecMode{trace.CodecAuto, trace.CodecForceRLE, trace.CodecForceDict, trace.CodecForceFOR} {
			br := blockReaderFor(t, tc.tr, trace.V2Options{Codec: codec})
			bd, err := br.ReadBlock(0)
			if err != nil {
				t.Fatal(err)
			}
			var s runScratch
			c := &Chunk{N: bd.Count()}
			if got := c.captureRuns(bd, nil, &s); got != tc.served {
				t.Fatalf("%s/%v: captureRuns = %v, want %v", tc.name, codec, got, tc.served)
			}
			for _, ri := range keyRunCols {
				cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(runColSet(ri))))
				if err != nil {
					t.Fatal(err)
				}
				want := cur.AppendRuns(nil)
				cur.Release()
				if !tc.served {
					want = nil
				}
				if !reflect.DeepEqual(c.runs[ri], want) {
					t.Fatalf("%s/%v: run column %d summary %v, want %v", tc.name, codec, ri, c.runs[ri], want)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				*c = Chunk{N: bd.Count()}
				c.captureRuns(bd, nil, &s)
			}); allocs != tc.allocs {
				t.Errorf("%s/%v: %v allocs per capture, want %v", tc.name, codec, allocs, tc.allocs)
			}
		}
	}
}
