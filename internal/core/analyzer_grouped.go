package core

import (
	"math/bits"
	"time"

	"vani/internal/colstore"
	"vani/internal/parallel"
	"vani/internal/stats"
	"vani/internal/trace"
)

// Grouped execution: the fused scan rewritten over dictionary codes. The
// key columns' stored values are the trace's interned dense ids, so once a
// CodeUnifier proves each key column dense under a cap, every map the fused
// scan keyed on (app, file) or rank becomes a flat array indexed by
// value+1, and the per-chunk scans ride KeySpans — runs of the five stable
// key columns with op dispatched per row — instead of hashing per row.
// Partials still merge in chunk order with integer sums and set unions, so
// the characterization is byte-identical to the map-keyed fallback (the
// codec-matrix equivalence suite pins a grouped-kernels-forced-off arm).

// Density caps for the grouped path. A column whose stored values exceed
// its cap (or whose combined accumulator would be pathologically large)
// sends the whole scan to the map-keyed fallback — the caps bound memory,
// they do not affect results. Real traces sit orders of magnitude below
// them: the arrays are sized by the actual cardinality the unifier
// discovers, not by the cap.
const (
	maxAppCard  = 1 << 12
	maxRankCard = 1 << 16
	maxFileCard = 1 << 17
	// maxLevelCells bounds the (app, file) primary-level matrix;
	// maxRankWords bounds the per-app rank bitsets, in 64-bit words.
	maxLevelCells = 1 << 21
	maxRankWords  = 1 << 21
)

// pass1g is the dense per-chunk partial of the level-resolution scan:
// levels is the (app, file) primary-level matrix storing level+1 (0 =
// unset), ranks the per-app bitsets of ranks that emitted any event.
type pass1g struct {
	levels []uint16
	maxEnd int64
	gpu    bool
	ranks  [][]uint64
}

// pass2g is the dense per-chunk partial of the fused characterization
// scan: files, perRank and rankHit replace the fallback's maps, indexed by
// value+1, and sel is the same per-chunk row selection the fallback emits.
// The fileAgg internals are unchanged, so merged results are
// bit-identical.
type pass2g struct {
	sel        chunkSel
	files      []*fileAgg
	readBytes  int64
	writeBytes int64
	data, meta int64
	readHist   stats.SizeHistogram
	writeHist  stats.SizeHistogram
	readTL     *stats.Timeline
	writeTL    *stats.Timeline
	perRank    []rankAcc
	rankHit    []bool
}

// fusedScanGrouped is the grouped-execution form of fusedScan. It returns
// done == false (with no side effects on a) when any key column is not
// densely unifiable under the caps, in which case the caller runs the
// map-keyed fallback.
func (a *analysis) fusedScanGrouped() (bool, error) {
	t0 := time.Now()
	appU, err := a.tb.UnifyCodes(colstore.ColApp, maxAppCard)
	if err != nil || appU == nil {
		return false, err
	}
	fileU, err := a.tb.UnifyCodes(colstore.ColFile, maxFileCard)
	if err != nil || fileU == nil {
		return false, err
	}
	rankU, err := a.tb.UnifyCodes(colstore.ColRank, maxRankCard)
	if err != nil || rankU == nil {
		return false, err
	}
	appSlots := int(appU.Card()) + 1
	fileSlots := int(fileU.Card()) + 1
	rankSlots := int(rankU.Card()) + 1
	rankWords := (rankSlots + 63) / 64
	if appSlots*fileSlots > maxLevelCells || appSlots*rankWords > maxRankWords {
		return false, nil
	}

	nchunks := a.tb.NumChunks()
	errs := make([]error, nchunks)

	// Pass 1: primary-level matrix, per-app rank bitsets, runtime, GPU.
	p1 := make([]*pass1g, nchunks)
	parallel.ForEach(a.par, nchunks, func(k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		c := a.tb.ChunkAt(k)
		// Kernel request: key spans hoist the level/rank/app/file lookups
		// to span boundaries; only op is read per row (it alternates too
		// often to span). Fallback: the full column set, row-iterated.
		spans, spanOK := a.tb.ChunkKeySpans(k, nil)
		need := pass1Cols
		if spanOK {
			need = trace.ColEnd | trace.ColOp
		}
		if errs[k] = c.Require(need); errs[k] != nil {
			return
		}
		p := &pass1g{
			levels: make([]uint16, appSlots*fileSlots),
			ranks:  make([][]uint64, appSlots),
		}
		bitset := func(si int) []uint64 {
			bs := p.ranks[si]
			if bs == nil {
				bs = make([]uint64, rankWords)
				p.ranks[si] = bs
			}
			return bs
		}
		for _, e := range c.End {
			if e > p.maxEnd {
				p.maxEnd = e
			}
		}
		if spanOK {
			for _, s := range spans {
				bs := bitset(int(s.App) + 1)
				rs := int(s.Rank) + 1
				bs[rs>>6] |= 1 << (rs & 63)
				anyIO := false
				for j := s.Lo; j < s.Hi; j++ {
					op := trace.Op(c.Op[j])
					if op == trace.OpGPUCompute {
						p.gpu = true
					}
					if op.IsIO() {
						anyIO = true
					}
				}
				if anyIO {
					idx := (int(s.App)+1)*fileSlots + int(s.File) + 1
					lv := uint16(s.Level) + 1
					if cur := p.levels[idx]; cur == 0 || lv < cur {
						p.levels[idx] = lv
					}
				}
			}
			p1[k] = p
			return
		}
		for j := 0; j < c.N; j++ {
			op := trace.Op(c.Op[j])
			if op == trace.OpGPUCompute {
				p.gpu = true
			}
			bs := bitset(int(c.App[j]) + 1)
			rs := int(c.Rank[j]) + 1
			bs[rs>>6] |= 1 << (rs & 63)
			if !op.IsIO() {
				continue
			}
			idx := (int(c.App[j])+1)*fileSlots + int(c.File[j]) + 1
			lv := uint16(c.Level[j]) + 1
			if cur := p.levels[idx]; cur == 0 || lv < cur {
				p.levels[idx] = lv
			}
		}
		p1[k] = p
	})
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	levels := make([]uint16, appSlots*fileSlots)
	ranksBits := make([][]uint64, appSlots)
	var maxEnd int64
	for _, p := range p1 {
		if p.maxEnd > maxEnd {
			maxEnd = p.maxEnd
		}
		a.gpuUsed = a.gpuUsed || p.gpu
		for i, lv := range p.levels {
			if lv != 0 && (levels[i] == 0 || lv < levels[i]) {
				levels[i] = lv
			}
		}
		for si, bs := range p.ranks {
			if bs == nil {
				continue
			}
			dst := ranksBits[si]
			if dst == nil {
				dst = make([]uint64, rankWords)
				ranksBits[si] = dst
			}
			for w, v := range bs {
				dst[w] |= v
			}
		}
	}
	a.runtime = time.Duration(maxEnd)
	a.appRanks = map[int32]int{}
	for si, bs := range ranksBits {
		if bs == nil {
			continue
		}
		n := 0
		for _, w := range bs {
			n += bits.OnesCount64(w)
		}
		a.appRanks[int32(si-1)] = n
	}
	a.pass1Time = time.Since(t0)

	// Pass 2: the fused characterization scan over dense accumulators.
	span := a.runtime
	if span <= 0 {
		span = time.Second
	}
	bins := a.opt.TimelineBins
	p2 := make([]*pass2g, nchunks)
	parallel.ForEach(a.par, nchunks, func(k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		c := a.tb.ChunkAt(k)
		spans, spanOK := a.tb.ChunkKeySpans(k, nil)
		a.tb.TickAccumKernels(spanOK)
		need := pass2Cols
		if spanOK {
			need = trace.ColOp | trace.ColSize | trace.ColStart | trace.ColEnd
		}
		if errs[k] = c.Require(need); errs[k] != nil {
			return
		}
		p := &pass2g{
			sel:     newChunkSel(c.N),
			files:   make([]*fileAgg, fileSlots),
			perRank: make([]rankAcc, rankSlots),
			rankHit: make([]bool, rankSlots),
			readTL:  stats.NewTimeline(span, bins),
			writeTL: stats.NewTimeline(span, bins),
		}
		if spanOK {
			keySpanPass2(c, spans, levels, fileSlots, p)
		} else {
			rowPass2g(c, levels, fileSlots, p)
		}
		p2[k] = p
	})
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}

	a.sels = make([]chunkSel, nchunks)
	a.fileAgg = map[int32]*fileAgg{}
	a.readTL = stats.NewTimeline(span, bins)
	a.writeTL = stats.NewTimeline(span, bins)
	a.perRank = map[int32]*rankAcc{}
	for k, p := range p2 {
		a.sels[k] = p.sel
		for si, fa := range p.files {
			if fa == nil {
				continue
			}
			f := int32(si - 1)
			if cur := a.fileAgg[f]; cur != nil {
				cur.merge(fa)
			} else {
				a.fileAgg[f] = fa
			}
		}
		a.readBytes += p.readBytes
		a.writeBytes += p.writeBytes
		a.primData += p.data
		a.primMeta += p.meta
		a.readHist.Merge(&p.readHist)
		a.writeHist.Merge(&p.writeHist)
		a.readTL.Merge(p.readTL)
		a.writeTL.Merge(p.writeTL)
		for si := range p.perRank {
			if !p.rankHit[si] {
				continue
			}
			acc := &p.perRank[si]
			r := int32(si - 1)
			if cur := a.perRank[r]; cur != nil {
				cur.rBytes += acc.rBytes
				cur.wBytes += acc.wBytes
				cur.rDur += acc.rDur
				cur.wDur += acc.wDur
			} else {
				a.perRank[r] = &rankAcc{
					rBytes: acc.rBytes, wBytes: acc.wBytes,
					rDur: acc.rDur, wDur: acc.wDur,
				}
			}
		}
	}
	a.pass2Time = time.Since(t0) - a.pass1Time
	return true, nil
}

// keySpanPass2 runs pass 2 over one chunk's stable-key spans: the primary
// check, the file/rank accumulator lookups and the reader/writer set
// updates happen once per span; within a span the op dispatch is hoisted to
// maximal same-op sub-runs, whose Size/Start/End accumulations run batched
// through SizeHistogram.AddRun and Timeline.AddRuns. Every batched add is a
// regrouped integer sum over the same rows in the same order, so every
// partial is identical to the row loop's.
func keySpanPass2(c *colstore.Chunk, spans []colstore.KeySpan, levels []uint16, fileSlots int, p *pass2g) {
	for _, s := range spans {
		isPosix := trace.Level(s.Level) == trace.LevelPosix
		isPrim := uint16(s.Level)+1 == levels[(int(s.App)+1)*fileSlots+int(s.File)+1]
		if !isPosix && !isPrim {
			continue // no row of this span can contribute anything
		}
		var fa *fileAgg
		var sawRead, sawWrite bool
		rslot := int(s.Rank) + 1
		acc := &p.perRank[rslot]
		for j := s.Lo; j < s.Hi; {
			op := trace.Op(c.Op[j])
			j2 := j + 1
			for j2 < s.Hi && c.Op[j2] == c.Op[j] {
				j2++
			}
			if !op.IsIO() {
				j = j2
				continue
			}
			if isPosix {
				p.sel.addPosix(j, j2)
			}
			if !isPrim {
				j = j2
				continue
			}
			p.sel.addPrim(c, j, j2)
			cnt := int64(j2 - j)
			if op.IsData() {
				p.data += cnt
			} else if op.IsMeta() {
				p.meta += cnt
			}
			if s.File >= 0 && fa == nil {
				fa = p.files[int(s.File)+1]
				if fa == nil {
					fa = newFileAgg(s.File)
					p.files[int(s.File)+1] = fa
				}
				fa.ranks[s.Rank] = true
			}
			p.rankHit[rslot] = true
			switch op {
			case trace.OpRead:
				var runBytes, runDur int64
				for i := j; i < j2; {
					sz := c.Size[i]
					dsum := c.End[i] - c.Start[i]
					i2 := i + 1
					for i2 < j2 && c.Size[i2] == sz {
						dsum += c.End[i2] - c.Start[i2]
						i2++
					}
					runBytes += sz * int64(i2-i)
					runDur += dsum
					p.readHist.AddRun(sz, int64(i2-i), time.Duration(dsum))
					i = i2
				}
				p.readBytes += runBytes
				p.readTL.AddRuns(c.Start, c.End, c.Size, j, j2)
				acc.rBytes += runBytes
				acc.rDur += runDur
				if fa != nil {
					fa.bytesRead += runBytes
					fa.ioDur += time.Duration(runDur)
					fa.dataOps += cnt
					sawRead = true
				}
			case trace.OpWrite:
				var runBytes, runDur int64
				for i := j; i < j2; {
					sz := c.Size[i]
					dsum := c.End[i] - c.Start[i]
					i2 := i + 1
					for i2 < j2 && c.Size[i2] == sz {
						dsum += c.End[i2] - c.Start[i2]
						i2++
					}
					runBytes += sz * int64(i2-i)
					runDur += dsum
					p.writeHist.AddRun(sz, int64(i2-i), time.Duration(dsum))
					i = i2
				}
				p.writeBytes += runBytes
				p.writeTL.AddRuns(c.Start, c.End, c.Size, j, j2)
				acc.wBytes += runBytes
				acc.wDur += runDur
				if fa != nil {
					fa.bytesWritten += runBytes
					fa.ioDur += time.Duration(runDur)
					fa.dataOps += cnt
					sawWrite = true
				}
			case trace.OpOpen:
				if fa != nil {
					var dsum int64
					for i := j; i < j2; i++ {
						dsum += c.End[i] - c.Start[i]
					}
					fa.ioDur += time.Duration(dsum)
					fa.opens += cnt
					fa.metaOps += cnt
				}
			default:
				if fa != nil {
					var dsum int64
					for i := j; i < j2; i++ {
						dsum += c.End[i] - c.Start[i]
					}
					fa.ioDur += time.Duration(dsum)
					fa.metaOps += cnt
				}
			}
			j = j2
		}
		if fa != nil {
			if sawRead {
				fa.readerRanks[s.Rank] = true
				fa.readerNodes[s.Node] = true
				fa.readerApps[s.App] = true
			}
			if sawWrite {
				fa.writerRanks[s.Rank] = true
				fa.writerNodes[s.Node] = true
				fa.writerApps[s.App] = true
			}
		}
	}
}

// rowPass2g is the grouped scan's per-row fallback for chunks without key
// spans: the fallback row loop with every map replaced by a dense array.
func rowPass2g(c *colstore.Chunk, levels []uint16, fileSlots int, p *pass2g) {
	for j := 0; j < c.N; j++ {
		op := trace.Op(c.Op[j])
		if !op.IsIO() {
			continue
		}
		if trace.Level(c.Level[j]) == trace.LevelPosix {
			p.sel.addPosix(j, j+1)
		}
		if uint16(c.Level[j])+1 != levels[(int(c.App[j])+1)*fileSlots+int(c.File[j])+1] {
			continue
		}
		p.sel.addPrim(c, j, j+1)
		dur := c.End[j] - c.Start[j]
		if op.IsData() {
			p.data++
		} else if op.IsMeta() {
			p.meta++
		}
		var fa *fileAgg
		if c.File[j] >= 0 {
			fa = p.files[int(c.File[j])+1]
			if fa == nil {
				fa = newFileAgg(c.File[j])
				p.files[int(c.File[j])+1] = fa
			}
			fa.ranks[c.Rank[j]] = true
			fa.ioDur += time.Duration(dur)
		}
		rslot := int(c.Rank[j]) + 1
		p.rankHit[rslot] = true
		acc := &p.perRank[rslot]
		switch op {
		case trace.OpRead:
			p.readBytes += c.Size[j]
			p.readHist.Add(c.Size[j], time.Duration(dur))
			p.readTL.Add(time.Duration(c.Start[j]), time.Duration(c.End[j]), c.Size[j])
			acc.rBytes += c.Size[j]
			acc.rDur += dur
			if fa != nil {
				fa.bytesRead += c.Size[j]
				fa.readerRanks[c.Rank[j]] = true
				fa.readerNodes[c.Node[j]] = true
				fa.readerApps[c.App[j]] = true
				fa.dataOps++
			}
		case trace.OpWrite:
			p.writeBytes += c.Size[j]
			p.writeHist.Add(c.Size[j], time.Duration(dur))
			p.writeTL.Add(time.Duration(c.Start[j]), time.Duration(c.End[j]), c.Size[j])
			acc.wBytes += c.Size[j]
			acc.wDur += dur
			if fa != nil {
				fa.bytesWritten += c.Size[j]
				fa.writerRanks[c.Rank[j]] = true
				fa.writerNodes[c.Node[j]] = true
				fa.writerApps[c.App[j]] = true
				fa.dataOps++
			}
		case trace.OpOpen:
			if fa != nil {
				fa.opens++
				fa.metaOps++
			}
		default:
			if fa != nil {
				fa.metaOps++
			}
		}
	}
}
