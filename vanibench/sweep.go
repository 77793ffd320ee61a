package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vani"
	"vani/internal/replay"
	"vani/internal/storage"
	"vani/internal/yamlenc"
)

// sweepDoc is the Figure 7 case study the `vani sweep` example runs.
var sweepDoc = filepath.Join("examples", "sweep-casestudy", "casestudy.yaml")

// The paper's Figure 7 band for the winner's I/O speedup, checked with the
// default seed (the document's own base.seed).
const (
	sweepDefaultSeed = 1
	paperBandLo      = 2.2
	paperBandHi      = 4.6
)

// sweepOp is one whole sweep.
type sweepOp struct {
	t0, t1 time.Time
	yaml   []byte
	err    error
}

// runSweep is the `vani sweep` path: a closed loop over the 8-point
// CosmoFlow Figure 7 sweep at its default point parallelism, with
// base.seed taken from the benchmark seed.
func runSweep(e *env) (*outcome, error) {
	o := newOutcome()
	var (
		sw   *vani.Sweep
		doc  []byte
		warm sweepOp
	)
	parse := func() (*vani.Sweep, error) {
		s, err := vani.ParseSweep(doc)
		if err != nil {
			return nil, err
		}
		if e.seed != 0 {
			s.Base.Seed = e.seed
		}
		return s, nil
	}
	setupS, err := repeatSetup(e.setups, func() error {
		var err error
		if doc, err = os.ReadFile(filepath.Join(e.root, sweepDoc)); err != nil {
			return err
		}
		if sw, err = parse(); err != nil {
			return err
		}
		// Warm-up: one sweep, checked with the others.
		warm = runOneSweep(sw, nil)
		return warm.err
	}, func() {})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	e.logf("sweep-fig7: %s, %d points, %d nodes, scale %g, seed %d", sw.Name, sw.NumPoints(), sw.Base.Nodes, sw.Base.Scale, sw.Base.Seed)

	// run sweeps until d has elapsed; it returns the elapsed time,
	// calibrations left out.
	run := func(d time.Duration, tr *tracer) ([]sweepOp, time.Duration) {
		var ops []sweepOp
		t0, p0 := time.Now(), e.cal.pausedFor()
		for len(ops) == 0 || time.Since(t0) < d {
			e.cal.op(func() { ops = append(ops, runOneSweep(sw, tr)) })
		}
		return ops, time.Since(t0) - (e.cal.pausedFor() - p0)
	}
	rate := func(ops []sweepOp, elapsed time.Duration) float64 {
		return float64(len(ops)*sw.NumPoints()) / elapsed.Seconds()
	}

	ops := []sweepOp{warm}
	if !e.traced {
		rss := sampleRSS(os.Getpid())
		measured, elapsed := run(e.seconds, nil)
		o.e2e["rss_p90_mb"] = quantile(rss.Stop(), 0.9)
		slow := e.cal.phaseSlowness()
		var lats []float64
		for _, op := range measured {
			lats = append(lats, ms(op.t1.Sub(op.t0))/slow)
		}
		// Grid points per second of a sweep at the median sweep time.
		o.e2e["op_p50_ms"] = quantile(lats, 0.5)
		o.e2e["op_p90_ms"] = quantile(lats, 0.9)
		o.e2e["work_per_s"] = float64(sw.NumPoints()) / (o.e2e["op_p50_ms"] / 1000)
		e.logf("sweep-fig7: %d sweeps, slowness %.3f, uncalibrated %.4g points/s over the whole run",
			len(measured), slow, rate(measured, elapsed))
		ops = append(ops, measured...)
	} else {
		plain, pe := run(e.seconds/2, nil)
		traced, te := run(e.seconds/2, e.tr)
		ops = append(append(ops, plain...), traced...)
		o.layers["bench.trace_overhead_frac"] = 1 - rate(traced, te)/rate(plain, pe)
		o.layers["bench.samples"] = float64(len(traced))
		o.layers["spec.point_ms"] = pointMS(e.tr, sw.NumPoints())
		if err := sweepProbe(e, sw, doc, ops[0].yaml, o); err != nil {
			return nil, err
		}
	}

	// Reference, outside the timed region: the same sweep with one point
	// at a time.
	ref, err := sw.Run(vani.SweepOptions{Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	refYAML := e.ref(vani.SweepToYAML(ref))
	var c checks
	for i, op := range ops {
		o.attempted++
		if op.err != nil {
			o.fail(e, 1, "sweep %d: %v", i, op.err)
			continue
		}
		c.compare(e, fmt.Sprintf("sweep-fig7 sweep %d", i), op.yaml, refYAML)
	}
	o.failed += c.failed
	if e.seed == sweepDefaultSeed {
		if !inPaperBand(ref.Winner.IOSpeedup) {
			o.fail(e, 1, "winner I/O speedup %s outside the paper's %.1f-%.1fx band", ref.Winner.IOSpeedup, paperBandLo, paperBandHi)
		} else {
			e.logf("sweep-fig7: winner point %d, I/O speedup %s (paper band %.1f-%.1fx)", ref.Winner.Index, ref.Winner.IOSpeedup, paperBandLo, paperBandHi)
		}
	}
	e.logf("sweep-fig7: %d sweeps, %d failed", o.attempted, o.failed)
	return o, nil
}

// inPaperBand reports whether a report's speedup ("2.71x") lies in the
// paper's Figure 7 band.
func inPaperBand(speedup string) bool {
	var x float64
	if _, err := fmt.Sscanf(speedup, "%gx", &x); err != nil {
		return false
	}
	return x >= paperBandLo && x <= paperBandHi
}

// runOneSweep runs the sweep once at its default parallelism. When tr is
// set, a root span covers the sweep and each point completion is recorded
// as a zero-length span from SweepOptions.OnPoint.
func runOneSweep(sw *vani.Sweep, tr *tracer) sweepOp {
	req := tr.req()
	root := tr.start("sweep.run", 0, req)
	var opt vani.SweepOptions
	if tr != nil {
		opt.OnPoint = func(done, total int) {
			tr.end(tr.start("sweep.point_done", root, req))
		}
	}
	t0 := time.Now()
	rep, err := sw.Run(opt)
	t1 := time.Now()
	tr.end(root)
	if err != nil {
		return sweepOp{t0: t0, t1: t1, err: err}
	}
	return sweepOp{t0: t0, t1: t1, yaml: vani.SweepToYAML(rep)}
}

// pointMS reconstructs the median point time from the completion
// timestamps of traced sweeps: with p points in flight, the k-th
// completion's point started when the (k-p)-th completed (or at the
// sweep's start for the first p).
func pointMS(tr *tracer, points int) float64 {
	par := min(runtime.NumCPU(), 4, points)
	var ds []float64
	for _, root := range tr.spans("sweep.run", "") {
		var done []int64
		for _, s := range tr.spans("sweep.point_done", "") {
			if s.Parent == root.ID {
				done = append(done, s.End)
			}
		}
		sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
		for k, t := range done {
			start := root.Start
			if k >= par {
				start = done[k-par]
			}
			ds = append(ds, ms(time.Duration(t-start)))
		}
	}
	return median(ds)
}

// sweepProbe times the calls one grid point makes, on the baseline point
// (the first value of every axis: staging pfs, hdf5_chunked false,
// stripe_size 1MiB): vani.Run, the analysis stack over its trace,
// vani.Tune with the three stripe candidates and vani.Advise.
func sweepProbe(e *env, sw *vani.Sweep, doc, report []byte, o *outcome) error {
	// The document's inline workload, re-encoded as JSON for ParseSpec.
	var body []string
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			body = append(body, line)
		}
	}
	tree, err := yamlenc.Unmarshal([]byte(strings.Join(body, "\n")))
	if err != nil {
		return err
	}
	top, ok := tree.(map[string]interface{})
	if !ok {
		return fmt.Errorf("%s: not a mapping", sweepDoc)
	}
	inline, err := json.Marshal(top["workload"])
	if err != nil {
		return err
	}
	wdoc, err := vani.ParseSpec(inline)
	if err != nil {
		return fmt.Errorf("%s: inline workload: %w", sweepDoc, err)
	}
	w := wdoc.Compile()
	sp := w.DefaultSpec()
	sp.Nodes = sw.Base.Nodes
	sp.Scale = sw.Base.Scale
	if sw.Base.RanksPerNode > 0 {
		sp.RanksPerNode = sw.Base.RanksPerNode
	}
	if sw.Base.Seed != 0 {
		sp.Seed = sw.Base.Seed
	}
	sp.Optimized = false
	sp.Iface.HDF5Chunked = false
	sp.Storage.PFSStripeSize = storage.MiB

	tr := e.tr
	req := tr.req()
	id := tr.start("sim.run", 0, req)
	t0 := time.Now()
	res, err := vani.Run(w, sp)
	simTime := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	o.layers["sim.events_per_s"] = float64(len(res.Trace.Events)) / simTime.Seconds()

	cfg := res.Spec.Storage
	aopt := vani.DefaultAnalyzerOptions()
	aopt.Storage = &cfg
	id = tr.start("core.characterize", 0, req)
	char := vani.CharacterizeWith(res, aopt)
	tr.end(id)

	id = tr.start("advisor.advise", 0, req)
	vani.Advise(char)
	tr.end(id)

	ropt := replay.DefaultOptions()
	ropt.Storage = cfg
	ropt.Seed = sw.Base.Seed
	id = tr.start("replay.tune", 0, req)
	_, err = vani.Tune(res.Trace, replay.StripeSweep(cfg, storage.MiB, 4*storage.MiB, 16*storage.MiB), ropt)
	tr.end(id)
	if err != nil {
		return err
	}
	o.layers["replay.tune_ms"] = tr.medianMS("replay.tune", "")
	o.layers["advisor.advise_ms"] = tr.medianMS("advisor.advise", "")

	// The probe must be the report's baseline point.
	o.attempted++
	want := fmt.Sprintf("io_time: %s", char.Workflow.IOTime)
	if !bytes.Contains(report, []byte(want)) {
		o.fail(e, 1, "baseline probe I/O time %s not in the sweep report", char.Workflow.IOTime)
	}

	// The analysis stack over the baseline trace, from disk.
	dir, err := e.dir("sweep-probe")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := vani.WriteTraceWith(&buf, res.Trace, vani.TraceWriteOptions{}); err != nil {
		return err
	}
	path := filepath.Join(dir, "baseline.trc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	var tot stackTotals
	for _, par := range []int{0, 1} {
		for rep := 0; rep < 3; rep++ {
			r, err := characterizeLayers(context.Background(), tr, tr.req(), 0, "cosmoflow", path, analyzerOptions(par, vani.TraceFilter{}))
			if err != nil {
				return err
			}
			if par == 0 {
				tot.add(r)
			}
		}
	}
	tot.report(tr, o.layers)
	o.layers["core.analyze_ms.cosmoflow"] = tr.medianMS("core.analyze", "cosmoflow")
	return nil
}
