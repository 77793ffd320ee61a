package main

import (
	"context"
	"os"
	"runtime/debug"
	"time"

	"vani"
)

// fileReportCorpus is one trace per paper workload. cm1 is served by the
// grouped/compressed-domain kernels end to end; montage-mpi falls back to
// the row path in its post passes, so a kernel or post-pass change shows
// on one trace and not the other.
var fileReportCorpus = []traceSpec{
	{workload: "cm1", nodes: 32, scale: 0.2},
	{workload: "hacc", nodes: 32, scale: 0.1},
	{workload: "cosmoflow", nodes: 32, scale: 0.05},
	{workload: "jag", nodes: 32, scale: 0.03},
	{workload: "montage-mpi", nodes: 16, scale: 0.5},
	{workload: "montage-pegasus", nodes: 16, scale: 0.05},
}

// seeded derives every trace's simulation seed from the benchmark seed.
func seeded(specs []traceSpec, seed int64) []traceSpec {
	out := append([]traceSpec(nil), specs...)
	for i := range out {
		out[i].seed = seed*1009 + int64(i) + 1
	}
	return out
}

// fileOp is one trace file characterized to YAML.
type fileOp struct {
	g      *genTrace
	t0, t1 time.Time
	yaml   []byte
	rows   int64
	err    error
	stack  *stackResult // the layer-by-layer result of a traced operation
}

// runFileReport is the `vani -t` path: one caller, closed loop, turning
// the corpus's trace files into YAML at the default analyzer parallelism.
func runFileReport(e *env) (*outcome, error) {
	o := newOutcome()
	var gs []*genTrace
	setupS, err := repeatSetup(e.setups, func() error {
		dir, err := e.dir("corpus")
		if err != nil {
			return err
		}
		gs, err = generate(e, dir, seeded(fileReportCorpus, e.seed), true)
		return err
	}, func() { gs = nil })
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	e.logf("file-report:%s", describe(gs))
	e.logf("file-report: %d traces, %d events, %d encoded bytes", len(gs), totalEvents(gs), totalBytes(gs))

	// References: the in-memory run analyzed sequentially.
	refs := map[*genTrace][]byte{}
	for _, g := range gs {
		refs[g] = vani.ToYAML(vani.CharacterizeWith(g.res, analyzerOptions(1, vani.TraceFilter{})))
		g.res = nil
	}
	debug.FreeOSMemory()

	opt := analyzerOptions(0, vani.TraceFilter{})
	// run characterizes whole passes over the corpus until d has elapsed;
	// it returns the elapsed time, calibrations left out.
	run := func(d time.Duration, tr *tracer) ([]fileOp, time.Duration) {
		var ops []fileOp
		t0, p0 := time.Now(), e.cal.pausedFor()
		for i := 0; i%len(gs) != 0 || time.Since(t0) < d; i++ {
			g := gs[i%len(gs)]
			e.cal.op(func() { ops = append(ops, characterizeFile(tr, g, opt)) })
		}
		return ops, time.Since(t0) - (e.cal.pausedFor() - p0)
	}
	rate := func(ops []fileOp, elapsed time.Duration) float64 {
		var ev int64
		for _, op := range ops {
			ev += op.rows
		}
		return float64(ev) / elapsed.Seconds()
	}

	var ops []fileOp
	if !e.traced {
		rss := sampleRSS(os.Getpid())
		var elapsed time.Duration
		ops, elapsed = run(e.seconds, nil)
		o.e2e["rss_p90_mb"] = quantile(rss.Stop(), 0.9)
		// Events per second of a corpus pass at each file's median time.
		slow := e.cal.phaseSlowness()
		lats := map[*genTrace][]float64{}
		for _, op := range ops {
			lats[op.g] = append(lats[op.g], ms(op.t1.Sub(op.t0))/slow)
		}
		var passMS, events float64
		for _, g := range gs {
			passMS += median(lats[g])
			events += float64(g.events)
		}
		o.e2e["work_per_s"] = events / (passMS / 1000)
		o.e2e["op_p50_ms"] = meanQuantile(lats, 0.5)
		o.e2e["op_p90_ms"] = meanQuantile(lats, 0.9)
		e.logf("file-report: %d operations, slowness %.3f, uncalibrated %.4g events/s over the whole run",
			len(ops), slow, rate(ops, elapsed))
	} else {
		plain, pe := run(e.seconds/2, nil)
		traced, te := run(e.seconds/2, e.tr)
		ops = append(plain, traced...)
		o.layers["bench.trace_overhead_frac"] = 1 - rate(traced, te)/rate(plain, pe)

		var tot stackTotals
		ctx := context.Background()
		for _, op := range traced {
			if op.err == nil {
				tot.add(op.stack)
			}
		}
		// Sequential probe: the same layers at analyzer parallelism 1.
		for _, g := range gs {
			r, err := characterizeLayers(ctx, e.tr, e.tr.req(), 0, g.name(), g.path, analyzerOptions(1, vani.TraceFilter{}))
			ops = append(ops, fileOp{g: g, err: err, yaml: yamlOf(r), rows: rowsOf(r)})
		}
		tot.report(e.tr, o.layers)
		for _, w := range paperWorkloads {
			o.layers["core.analyze_ms."+w] = e.tr.medianMS("core.analyze", w)
		}
		o.layers["core.analyze_seq_ms.montage-mpi"] = e.tr.medianMS("core.analyze_seq", "montage-mpi")
		o.layers["sim.events_per_s"] = simEventsPerS(gs)
		o.layers["bench.samples"] = float64(len(traced))
	}

	var c checks
	for _, op := range ops {
		o.attempted++
		if op.err != nil {
			o.fail(e, 1, "%s: %v", op.g.name(), op.err)
			continue
		}
		if op.rows != int64(op.g.events) {
			o.fail(e, 1, "%s: %d rows decoded, trace holds %d events", op.g.name(), op.rows, op.g.events)
			continue
		}
		c.compare(e, "file-report "+op.g.name(), op.yaml, e.ref(refs[op.g]))
	}
	o.failed += c.failed
	e.logf("file-report: %d operations, %d failed", o.attempted, o.failed)
	return o, nil
}

// characterizeFile runs one trace file to YAML: through the public facade
// when untraced, through the layers with spans when tr is set.
func characterizeFile(tr *tracer, g *genTrace, opt vani.AnalyzerOptions) fileOp {
	t0 := time.Now()
	if tr != nil {
		req := tr.req()
		root := tr.startL("file-report.op", g.name(), 0, req)
		r, err := characterizeLayers(context.Background(), tr, req, root, g.name(), g.path, opt)
		tr.end(root)
		return fileOp{g: g, t0: t0, t1: time.Now(), err: err, yaml: yamlOf(r), rows: rowsOf(r), stack: r}
	}
	var tm vani.AnalyzerTimings
	opt.Stats = &tm
	c, err := vani.CharacterizeFileWith(g.path, opt)
	if err != nil {
		return fileOp{g: g, t0: t0, t1: time.Now(), err: err}
	}
	y := vani.ToYAML(c)
	return fileOp{g: g, t0: t0, t1: time.Now(), yaml: y, rows: tm.Scan.RowsTotal}
}

func yamlOf(r *stackResult) []byte {
	if r == nil {
		return nil
	}
	return r.yaml
}

func rowsOf(r *stackResult) int64 {
	if r == nil {
		return 0
	}
	return r.scan.RowsTotal
}
