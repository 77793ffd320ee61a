package trace

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// fuzzSeedTrace builds the small valid trace the fuzz targets seed from.
func fuzzSeedTrace(f *testing.F) *Trace {
	f.Helper()
	tr := NewTracer()
	tr.SetMeta(Meta{Workload: "fuzz", Nodes: 2, Ranks: 4, PFSDir: "/p/gpfs1"})
	id := tr.FileID("/p/gpfs1/f")
	tr.AddSample("s", []float64{1, 2, 3})
	tr.Record(Event{Op: OpWrite, File: id, Size: 4096, Start: 1, End: 2})
	tr.Record(Event{Op: OpRead, File: id, Size: 128, Start: 3, End: 5})
	return tr.Finish()
}

// FuzzRead hardens the trace decoder against corrupt input: any byte
// stream must either decode cleanly or return an error — never panic,
// hang, or allocate unboundedly. The scanner sniffs the magic, so this
// target covers both the VANITRC1 stream and the VANITRC2 block decoder.
func FuzzRead(f *testing.F) {
	// Seed with valid traces in both formats, their truncations, and
	// mutations.
	seed := fuzzSeedTrace(f)
	var buf bytes.Buffer
	if err := Write(&buf, seed); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("VANITRC1"))
	f.Add([]byte("garbage"))
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 20 {
		mutated[20] ^= 0xff
	}
	f.Add(mutated)

	var buf2 bytes.Buffer
	if err := WriteV2With(&buf2, seed, V2Options{BlockEvents: 1}); err != nil {
		f.Fatal(err)
	}
	valid2 := buf2.Bytes()
	f.Add(valid2)
	f.Add(valid2[:len(valid2)/2])
	f.Add(valid2[:len(valid2)-trailerLen])
	f.Add([]byte(magicV2))
	mutated2 := append([]byte(nil), valid2...)
	if len(mutated2) > 20 {
		mutated2[20] ^= 0xff
	}
	f.Add(mutated2)
	var comp2 bytes.Buffer
	if err := WriteV2With(&comp2, seed, V2Options{BlockEvents: 1, Compress: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(comp2.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded traces must survive re-encoding in both formats.
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		out.Reset()
		if err := WriteV2(&out, tr); err != nil {
			t.Fatalf("v2 re-encode of decoded trace failed: %v", err)
		}
	})
}

// FuzzBlockReader hardens the seekable VANITRC2 path: corrupt blocks,
// truncated footers, and arbitrary garbage must surface as ErrBadFormat —
// never a panic, a hang, or an unbounded allocation — and whatever does
// decode must round-trip.
func FuzzBlockReader(f *testing.F) {
	seed := fuzzSeedTrace(f)
	// Seeds span every footer version: v2.2 logs carry the VANIIDX4 footer
	// (per-segment codec ids), v2.1 columnar logs VANIIDX3 (per-block
	// rank/level/op stats and per-column byte ranges), row-layout logs the
	// legacy VANIIDX2 footer — and every segment codec, both cost-model
	// chosen and forced on.
	for _, opt := range []V2Options{
		{BlockEvents: 1}, {BlockEvents: 1, Compress: true}, {},
		{BlockEvents: 1, RowLayout: true}, {RowLayout: true, Compress: true},
		{BlockEvents: 1, Codec: CodecV21}, {Codec: CodecV21, Compress: true},
		{BlockEvents: 1, Codec: CodecForceRaw},
		{BlockEvents: 1, Codec: CodecForceRLE},
		{BlockEvents: 1, Codec: CodecForceDict},
		{BlockEvents: 1, Codec: CodecForceFOR},
		{Codec: CodecForceFOR, Compress: true},
	} {
		var buf bytes.Buffer
		if err := WriteV2With(&buf, seed, opt); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		if len(valid) > trailerLen {
			f.Add(valid[:len(valid)-trailerLen]) // footer trailer gone
			f.Add(valid[:len(valid)-trailerLen/2])
		}
		mutated := append([]byte(nil), valid...)
		if len(mutated) > 30 {
			mutated[len(mutated)/2] ^= 0xff
		}
		f.Add(mutated)
	}
	// Bit-flip sweep over a v2.2 log's block payloads: flips land in codec
	// id bytes, dict widths, and packed index/offset words, so every decode
	// kernel sees crafted claims.
	{
		var buf bytes.Buffer
		if err := WriteV2With(&buf, seed, V2Options{BlockEvents: 1}); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		for pos := len(magicV2); pos < len(valid)-trailerLen; pos += 3 {
			mutated := append([]byte(nil), valid...)
			mutated[pos] ^= 1 << (pos % 8)
			f.Add(mutated)
		}
	}
	// Multi-row blocks under forced dict and FOR, bit-flip swept: these land
	// corruption in dictionary sizes, pack widths, code words and FOR bases —
	// the wire claims the compressed-domain SegCursor paths (code-space
	// iteration, run coalescing, header min/max) must reject as ErrBadFormat
	// rather than mis-iterate or panic.
	{
		big := NewTracer()
		big.SetMeta(Meta{Workload: "fuzz", Nodes: 2, Ranks: 4, PFSDir: "/p/gpfs1"})
		id := big.FileID("/p/gpfs1/f")
		for i := 0; i < 48; i++ {
			op := OpWrite
			if i%3 == 0 {
				op = OpRead
			}
			big.Record(Event{Op: op, Rank: int32(i / 6 % 4), File: id,
				Offset: int64(i) * 512, Size: int64(i%7) * 64,
				Start: time.Duration(i + 1), End: time.Duration(i + 2)})
		}
		bigTr := big.Finish()
		for _, opt := range []V2Options{
			{BlockEvents: 16, Codec: CodecForceDict},
			{BlockEvents: 16, Codec: CodecForceFOR},
			{BlockEvents: 16, Codec: CodecForceRLE},
		} {
			var buf bytes.Buffer
			if err := WriteV2With(&buf, bigTr, opt); err != nil {
				f.Fatal(err)
			}
			valid := buf.Bytes()
			f.Add(valid)
			for pos := len(magicV2); pos < len(valid)-trailerLen; pos += 5 {
				mutated := append([]byte(nil), valid...)
				mutated[pos] ^= 1 << (pos % 8)
				f.Add(mutated)
			}
		}
	}
	f.Add([]byte(magicV2))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("open error %v does not wrap ErrBadFormat", err)
			}
			return
		}
		var cols Columns
		var evs []Event
		for k := 0; k < br.NumBlocks(); k++ {
			evs, err = br.DecodeEvents(k, evs)
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("block %d decode error %v does not wrap ErrBadFormat", k, err)
				}
				return
			}
			if err := br.DecodeColumns(k, &cols); err != nil {
				t.Fatalf("block %d: events decoded but columns failed: %v", k, err)
			}
			if cols.N != len(evs) {
				t.Fatalf("block %d: columnar decode sees %d rows, row decode %d", k, cols.N, len(evs))
			}
			// The projected path must agree with the full decode even on
			// fuzzer-crafted footers (corrupt column ranges surface as
			// ErrBadFormat in ReadBlock or Decode, never as a panic).
			bd, err := br.ReadBlock(k)
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("block %d: ReadBlock error %v does not wrap ErrBadFormat", k, err)
				}
				return
			}
			var pcols Columns
			if _, err := bd.Decode(ColStart|ColRank, &pcols); err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("block %d: projected decode error %v does not wrap ErrBadFormat", k, err)
				}
				return
			}
			// A crafted footer may legally re-partition the column ranges, so
			// only the row count is asserted here; value equality is pinned by
			// the unit tests over writer-produced logs.
			if pcols.N != len(evs) {
				t.Fatalf("block %d: projected decode sees %d rows, row decode %d", k, pcols.N, len(evs))
			}
			// The compressed-domain cursors must reject crafted segments as
			// ErrBadFormat and, when they accept one, iterate structures that
			// tile the block exactly — never panic or run past the row count.
			for col := 0; col < NumCols; col++ {
				cur, err := bd.SegCursorAt(col)
				if err != nil {
					if !errors.Is(err, ErrBadFormat) {
						t.Fatalf("block %d col %d: cursor error %v does not wrap ErrBadFormat", k, col, err)
					}
					continue
				}
				if cur == nil {
					continue
				}
				if runs := cur.AppendRuns(nil); runs != nil {
					total := 0
					for _, r := range runs {
						total += int(r.N)
					}
					if total != cur.Rows() {
						t.Fatalf("block %d col %d: runs cover %d of %d rows", k, col, total, cur.Rows())
					}
				}
				if nd := cur.NumCodes(); nd > 0 {
					rows := 0
					cur.ForEachCode(func(code uint32) bool {
						if int(code) >= nd {
							t.Fatalf("block %d col %d: code %d out of %d", k, col, code, nd)
						}
						rows++
						return true
					})
					if rows != cur.Rows() {
						t.Fatalf("block %d col %d: %d codes for %d rows", k, col, rows, cur.Rows())
					}
				}
				// Exercised for panics only: crafted FOR bases can wrap the
				// mod-2^64 arithmetic, so the values carry no invariants here.
				_, _, _, _ = cur.FORStats()
				_, _ = cur.ConstVal()
			}
		}
	})
}

// FuzzUnpack holds the word-at-a-time unpack to the byte-window loop
// (unpackWide, which every width above maxWordWidth still takes) on
// arbitrary bytes, widths and value counts.
func FuzzUnpack(f *testing.F) {
	f.Add([]byte{0xff, 0x01, 0x80, 0x7f, 0x55, 0xaa, 0x00, 0x12, 0x34}, uint8(5), uint16(14))
	f.Add(bytes.Repeat([]byte{0xa5}, 64), uint8(56), uint16(9))
	f.Add(bytes.Repeat([]byte{0x3c}, 17), uint8(13), uint16(10))
	f.Add(bytes.Repeat([]byte{0xff}, 72), uint8(64), uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, w uint8, n uint16) {
		width := uint(w % 65)
		cnt := int(n)
		if width > 0 {
			cnt = min(cnt, len(data)*8/int(width))
		} else {
			cnt = min(cnt, 1024)
		}
		src := data[:packedLen(cnt, width)]
		var want []uint64
		if width > 0 {
			unpackWide(src, cnt, width, func(u uint64) bool {
				want = append(want, u)
				return true
			})
		}
		unpackBoth(t, src, cnt, width, 7, func(i int) uint64 {
			if width == 0 {
				return 0
			}
			return want[i]
		})
	})
}
