package main

import (
	"context"
	"os"
	"runtime"

	"vani"
	"vani/internal/colstore"
	"vani/internal/core"
	"vani/internal/trace"
	"vani/internal/workloads"
	"vani/internal/yamlenc"
)

// cliStorage is the storage model cmd/vani and vanid hand the analyzer.
func cliStorage() *vani.StorageConfig {
	cfg := workloads.DefaultSpec().Storage
	return &cfg
}

// analyzerOptions are the `vani -t` defaults with the CLI storage model.
func analyzerOptions(par int, f vani.TraceFilter) vani.AnalyzerOptions {
	opt := vani.DefaultAnalyzerOptions()
	opt.Storage = cliStorage()
	opt.Parallelism = par
	opt.Filter = f
	return opt
}

// stackResult is one characterization run layer by layer.
type stackResult struct {
	yaml  []byte
	scan  colstore.ScanCounters
	alloc uint64 // heap bytes allocated by the analyzer call
}

// characterizeLayers runs the `vani -t` read path as its layers —
// trace.NewBlockReader, colstore.FromBlocksSpecContext,
// core.AnalyzeTableContext, yamlenc.Marshal — with a span around each,
// children of span parent; the analyzer span carries label. The result is byte-identical to
// vani.CharacterizeFileWith plus vani.ToYAML over the same file.
func characterizeLayers(ctx context.Context, tr *tracer, req int64, parent int, label, path string, opt vani.AnalyzerOptions) (*stackResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	id := tr.start("trace.open", parent, req)
	br, err := trace.NewBlockReader(trace.ReaderAtContext(ctx, f), info.Size())
	tr.end(id)
	if err != nil {
		return nil, err
	}

	stats := &colstore.ScanStats{}
	id = tr.start("colstore.scan", parent, req)
	tb, err := colstore.FromBlocksSpecContext(ctx, br, opt.Parallelism, colstore.ScanSpec{Filter: opt.Filter}, stats)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	name := "core.analyze"
	if opt.Parallelism == 1 {
		name = "core.analyze_seq"
	}
	id = tr.startL(name, label, parent, req)
	c, err := core.AnalyzeTableContext(ctx, br.Header(), tb, opt)
	tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}

	id = tr.start("yamlenc.marshal", parent, req)
	y := yamlenc.Marshal(c)
	tr.end(id)
	return &stackResult{yaml: y, scan: stats.Snapshot(), alloc: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// stackTotals accumulates the analysis-stack counters of traced
// characterizations into per-layer metrics.
type stackTotals struct {
	rows, decoded, yamlBytes, n int64
	alloc                       uint64
	kServed, kFall              int64
	gServed, gFall              int64
	tServed, tFall              int64
}

func (s *stackTotals) add(r *stackResult) {
	s.n++
	s.rows += r.scan.RowsTotal
	s.decoded += r.scan.DecodedBytes
	s.yamlBytes += int64(len(r.yaml))
	s.alloc += r.alloc
	s.kServed += r.scan.KernelsServed
	s.kFall += r.scan.KernelsFallback
	s.gServed += r.scan.GroupServed
	s.gFall += r.scan.GroupFallback
	s.tServed += r.scan.TLServed
	s.tFall += r.scan.TLFallback
}

// report fills the analysis-stack per-layer metrics from the counters and
// the tracer's spans.
func (s *stackTotals) report(tr *tracer, layers map[string]float64) {
	layers["trace.open_ms"] = tr.medianMS("trace.open", "")
	layers["colstore.scan_ms"] = tr.medianMS("colstore.scan", "")
	layers["colstore.decoded_bytes_per_event"] = frac(s.decoded, s.rows)
	layers["colstore.kernels_served_frac"] = frac(s.kServed, s.kServed+s.kFall)
	layers["colstore.group_served_frac"] = frac(s.gServed, s.gServed+s.gFall)
	layers["colstore.tl_served_frac"] = frac(s.tServed, s.tServed+s.tFall)
	layers["core.analyze_ms"] = tr.medianMS("core.analyze", "")
	layers["core.analyze_seq_ms"] = tr.medianMS("core.analyze_seq", "")
	layers["core.par_speedup"] = parSpeedup(tr)
	layers["core.alloc_bytes_per_event"] = frac(int64(s.alloc), s.rows)
	layers["yamlenc.marshal_ms"] = tr.medianMS("yamlenc.marshal", "")
	if s.n > 0 {
		layers["yamlenc.bytes"] = float64(s.yamlBytes) / float64(s.n)
	}
}

// parSpeedup is the analyzer's parallel speedup: over every label traced
// at both settings, the summed median sequential time over the summed
// median default-parallelism time.
func parSpeedup(tr *tracer) float64 {
	labels := map[string]bool{}
	for _, s := range tr.spans("core.analyze_seq", "") {
		labels[s.Label] = true
	}
	var seq, par float64
	for l := range labels {
		p := tr.medianMS("core.analyze", l)
		if p == 0 {
			continue
		}
		seq += tr.medianMS("core.analyze_seq", l)
		par += p
	}
	if par == 0 {
		return 0
	}
	return seq / par
}
