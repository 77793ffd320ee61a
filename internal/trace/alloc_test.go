package trace

import (
	"bytes"
	"errors"
	"math/bits"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// allocTrace builds a trace big enough that one block's frame is hundreds of
// kilobytes — a leaked frame buffer per failed decode shows up unmistakably
// in the heap numbers.
func allocTrace(n int) *Trace {
	tr := NewTracer()
	tr.SetMeta(Meta{Workload: "alloc", Nodes: 2, Ranks: 8, PFSDir: "/p"})
	id := tr.FileID("/p/f")
	for i := 0; i < n; i++ {
		tr.Record(Event{
			Level: LevelPosix, Op: OpWrite, Rank: int32(i % 8), File: id,
			Offset: int64(i) * 4096, Size: int64(i%977) * 7,
			Start: time.Duration(i + 1), End: time.Duration(i + 2),
		})
	}
	return tr.Finish()
}

// TestDecodeErrorReturnsPooledScratch: a decode that fails must recycle its
// pooled frame scratch — steady-state heap growth across repeated failing
// decodes stays far below one frame buffer per attempt. This pins the
// error-path pool discipline in readBlockPayload.
func TestDecodeErrorReturnsPooledScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	for _, compress := range []bool{false, true} {
		tr := allocTrace(DefaultBlockEvents + 50)
		var buf bytes.Buffer
		if err := WriteV2With(&buf, tr, V2Options{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt block 0's frame codec byte so unwrapFrame rejects it on
		// every read — the earliest error path, before any payload escapes.
		bi := br.BlockAt(0)
		data[bi.Offset] = 0xEE
		frameLen := bi.Len

		var cols Columns
		fail := func() {
			if err := br.DecodeColumns(0, &cols); err == nil {
				t.Fatal("corrupt frame decoded cleanly")
			} else if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("decode error %v does not wrap ErrBadFormat", err)
			}
		}
		fail() // warm the pools
		const iters = 100
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			fail()
		}
		runtime.ReadMemStats(&after)
		grown := int64(after.TotalAlloc - before.TotalAlloc)
		// A leak allocates one frame buffer per attempt; recycled scratch
		// leaves only error values behind. Allow generous slack for those.
		if limit := frameLen*iters/10 + 64*1024; grown > limit {
			t.Errorf("compress=%v: %d failing decodes allocated %d bytes (frame is %d); pooled scratch is leaking",
				compress, iters, grown, frameLen)
		}
	}
}

// TestDecodeErrorAllocsPerOp bounds the allocation count of a failing
// decode: with scratch recycled, only the error chain allocates.
func TestDecodeErrorAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	tr := allocTrace(2000)
	var buf bytes.Buffer
	if err := WriteV2With(&buf, tr, V2Options{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	data[br.BlockAt(0).Offset] = 0xEE
	var cols Columns
	allocs := testing.AllocsPerRun(100, func() {
		if err := br.DecodeColumns(0, &cols); err == nil {
			t.Fatal("corrupt frame decoded cleanly")
		}
	})
	if allocs > 16 {
		t.Errorf("failing decode allocates %.1f objects/op, want <= 16", allocs)
	}
}

// TestMemoDecodeCopiesWantOnly: a warm memo serves a column subset as the
// same values a direct decode of that subset yields, allocating the subset
// and nothing more; a non-projectable (row-layout) memo still fills every
// column, as its direct decode does.
func TestMemoDecodeCopiesWantOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector skews allocation counts")
	}
	tr := allocTrace(3000)
	for _, tc := range []struct {
		name string
		opt  V2Options
		fill ColSet // the columns one Decode(ColRank|ColSize) fills
	}{
		{"projectable", V2Options{}, ColRank | ColSize},
		{"row-layout", V2Options{RowLayout: true}, AllCols},
	} {
		data := encodeV2(t, tr, tc.opt)
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := br.ReadBlock(0)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := br.ReadBlock(0)
		if err != nil {
			t.Fatal(err)
		}
		memo.EnableMemo()
		var warm Columns
		if _, err := memo.Decode(ColOp, &warm); err != nil {
			t.Fatal(err)
		}
		want := ColRank | ColSize
		var got, ref Columns
		if n, err := memo.Decode(want, &got); err != nil || n != 0 {
			t.Fatalf("%s: memo hit decoded %d bytes, err %v", tc.name, n, err)
		}
		if _, err := direct.Decode(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: memo subset differs from a direct decode", tc.name)
		}
		if filled := got.End != nil; filled != (tc.fill&ColEnd != 0) {
			t.Fatalf("%s: End filled = %v, want %v", tc.name, filled, tc.fill&ColEnd != 0)
		}
		nfill := float64(bits.OnesCount64(uint64(tc.fill)))
		if allocs := testing.AllocsPerRun(10, func() {
			var c Columns
			memo.Decode(want, &c) //nolint:errcheck
		}); allocs != nfill {
			t.Errorf("%s: memo hit made %v allocations, want %v (one per filled column)", tc.name, allocs, nfill)
		}
	}
}
