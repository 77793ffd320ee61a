package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strings"
	"sync"
	"time"

	"vani"
	"vani/internal/cliutil"
)

// whatifHotSet is the set of traces the storage system keeps querying:
// ~1.3 M events whose block-cache charge fits vanid's default budget.
var whatifHotSet = []traceSpec{
	{workload: "montage-mpi", nodes: 16, scale: 0.5},
	{workload: "cm1", nodes: 32, scale: 0.2},
	{workload: "cosmoflow", nodes: 32, scale: 0.05},
	{workload: "hacc", nodes: 32, scale: 0.1},
}

const (
	whatifClients = 2
	whatifStream  = 8000 // pre-generated requests; a run uses a prefix
	repeatOneIn   = 8    // a seeded 1 in 8 requests repeats an earlier pair
)

// whatifReq is one what-if query: a trace and a filter spec in vanid's
// query-parameter syntax, drawn in one of the filterShapes.
type whatifReq struct {
	g     int
	shape int
	query string
}

// whatifOp is one answered request.
type whatifOp struct {
	req    int
	t0, t1 time.Time
	hit    bool
	body   []byte
	err    error
}

// filterStream draws the seeded request stream over the hot set. The
// stream is stratified so that seeds change the filters and not the load:
// requests visit the traces in turn and cycle through a fixed list of
// filter shapes, each with a fixed selectivity, and the k-th filter of one
// (trace, shape) pair sits at the k-th point of a low-discrepancy sequence
// with a seeded offset, so any prefix of the stream covers the trace
// evenly. Every repeatOneIn-th request repeats an earlier (trace, filter)
// pair, drawn by the seed from those at least four requests back so that
// with two clients the pair has usually been answered already; every other
// request carries a filter no earlier request used.
func filterStream(seed int64, gs []*genTrace, n int) []whatifReq {
	rng := rand.New(rand.NewSource(seed))
	var offsets [4]float64
	for i := range offsets {
		offsets[i] = rng.Float64()
	}
	seen := map[whatifReq]bool{}
	draws := map[[2]int]int{} // (trace, shape) -> filters drawn so far
	out := make([]whatifReq, 0, n)
	for fresh := 0; len(out) < n; {
		if len(out) >= 8 && len(out)%repeatOneIn == repeatOneIn-1 {
			out = append(out, out[rng.Intn(len(out)-4)])
			continue
		}
		g := fresh % len(gs)
		si := (fresh / len(gs)) % len(filterShapes)
		shape := filterShapes[si]
		var r whatifReq
		for tries := 0; ; tries++ {
			if tries == 8 {
				// The shape's few distinct positions are used up:
				// narrow by a window too.
				shape += "w"
			}
			k := draws[[2]int{g, si}]
			draws[[2]int{g, si}]++
			r = whatifReq{g: g, shape: si, query: stratifiedFilter(gs[g], shape, k, offsets)}
			if !seen[r] {
				break
			}
		}
		seen[r] = true
		out = append(out, r)
		fresh++
	}
	return out
}

// filterShapes are the filter dimensions a request combines: a window
// over a quarter of the run, a quarter of the ranks, a level set, an
// operation class.
var filterShapes = []string{"w", "r", "wr", "wo", "rl", "wl", "ro", "wrl"}

// stratifiedFilter is the k-th filter of one shape over trace g: each
// dimension takes the k-th point of its own additive-recurrence sequence
// (golden ratio for windows, silver ratio for rank ranges, a plain cycle
// for levels and operation classes), shifted by the seeded offsets.
func stratifiedFilter(g *genTrace, shape string, k int, off [4]float64) string {
	at := func(step, o float64) float64 {
		_, f := math.Modf(o + float64(k)*step)
		return f
	}
	q := url.Values{}
	if strings.Contains(shape, "w") {
		rt := g.runtime.Microseconds()
		from := int64(at(0.6180339887498949, off[0]) * 0.75 * float64(rt))
		q.Set("window", fmt.Sprintf("%dus:%dus", from, from+rt/4))
	}
	if strings.Contains(shape, "r") {
		n := max(1, g.ranks/4)
		lo := int(at(0.4142135623730951, off[1]) * float64(g.ranks-n+1))
		q.Set("ranks", fmt.Sprintf("%d-%d", lo, lo+n-1))
	}
	if strings.Contains(shape, "l") {
		levels := []string{"app", "posix", "app,middleware", "middleware,posix"}
		q.Set("levels", levels[(k+int(off[2]*4))%len(levels)])
	}
	if strings.Contains(shape, "o") {
		ops := []string{"data", "meta", "io"}
		q.Set("ops", ops[(k+int(off[3]*3))%len(ops)])
	}
	return q.Encode()
}

// parseQuery compiles a request's query string the way vanid does.
func parseQuery(query string) (vani.TraceFilter, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return vani.TraceFilter{}, err
	}
	return cliutil.ParseFilter(q.Get("window"), q.Get("ranks"), q.Get("levels"), q.Get("ops"))
}

// runWhatif is the storage system's on-demand query traffic: vanid in
// spool mode with its default block cache, two closed-loop clients
// posting hot traces to POST /v1/characterize with seeded filters.
func runWhatif(e *env) (*outcome, error) {
	o := newOutcome()
	var (
		gs []*genTrace
		d  *daemon
	)
	teardown := func() {
		d.stop()
		d = nil
	}
	defer func() { teardown() }()
	setupS, err := repeatSetup(e.setups, func() error {
		dir, err := e.dir("hot")
		if err != nil {
			return err
		}
		if gs, err = generate(e, dir, seeded(whatifHotSet, e.seed), false); err != nil {
			return err
		}
		vdir, err := e.dir("vanid")
		if err != nil {
			return err
		}
		if d, err = startVanid(e, vdir, "-spool-dir", vdir+"/spool"); err != nil {
			return err
		}
		// Warm-up: one unfiltered report per trace fills the block cache.
		for _, g := range gs {
			if _, _, err := d.characterize("", g.data); err != nil {
				return fmt.Errorf("warm-up %s: %w", g.name(), err)
			}
		}
		return nil
	}, teardown)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	e.logf("service-whatif:%s", describe(gs))
	e.logf("service-whatif: %d traces, %d events, %d encoded bytes, block cache %.1f MiB of 256 MiB",
		len(gs), totalEvents(gs), totalBytes(gs), float64(m0["block_cache_bytes"])/(1<<20))

	stream := filterStream(e.seed, gs, whatifStream)
	// run drives the clients for dur; it returns the elapsed time,
	// calibrations left out.
	run := func(dur time.Duration, tr *tracer, from int64) ([]whatifOp, time.Duration) {
		var mu sync.Mutex
		var ops []whatifOp
		p0 := e.cal.pausedFor()
		elapsed := closedLoop(e.cal, whatifClients, dur, func(_ int, seq int64) {
			i := int((from + seq) % int64(len(stream)))
			r := stream[i]
			req := tr.req()
			id := tr.startL("whatif.request", gs[r.g].name(), 0, req)
			s := time.Now()
			body, hit, err := d.characterize(r.query, gs[r.g].data)
			op := whatifOp{req: i, t0: s, t1: time.Now(), hit: hit, body: body, err: err}
			tr.end(id)
			mu.Lock()
			ops = append(ops, op)
			mu.Unlock()
		})
		return ops, elapsed - (e.cal.pausedFor() - p0)
	}
	rate := func(ops []whatifOp, elapsed time.Duration) float64 {
		return float64(len(ops)) / elapsed.Seconds()
	}

	var ops, traced []whatifOp
	if !e.traced {
		rss := sampleRSS(d.pid())
		var elapsed time.Duration
		ops, elapsed = run(e.seconds, nil, 0)
		o.e2e["rss_p90_mb"] = quantile(rss.Stop(), 0.9)
		slow := e.cal.phaseSlowness()
		o.e2e["work_per_s"] = rate(ops, elapsed) * slow
		// By trace and filter shape: the shapes' costs differ several-fold.
		lats := map[[2]int][]float64{}
		for _, op := range ops {
			k := [2]int{stream[op.req].g, stream[op.req].shape}
			lats[k] = append(lats[k], ms(op.t1.Sub(op.t0))/slow)
		}
		o.e2e["op_p50_ms"] = meanQuantile(lats, 0.5)
		o.e2e["op_p90_ms"] = meanQuantile(lats, 0.9)
		e.logf("service-whatif: slowness %.3f, uncalibrated %.4g requests/s", slow, rate(ops, elapsed))
	} else {
		plain, pe := run(e.seconds/2, nil, 0)
		m1, err := d.metrics()
		if err != nil {
			return nil, err
		}
		var te time.Duration
		traced, te = run(e.seconds/2, e.tr, int64(len(plain)))
		m2, err := d.metrics()
		if err != nil {
			return nil, err
		}
		ops = append(plain, traced...)
		o.layers["bench.trace_overhead_frac"] = 1 - rate(traced, te)/rate(plain, pe)
		o.layers["bench.samples"] = float64(len(traced))
		serverLayers(delta(m1, m2), int64(len(traced)), o.layers)
		o.layers["server.block_cache_mb"] = float64(m2["block_cache_bytes"]) / (1 << 20)
		o.layers["server.vmhwm_mb"] = vmHWM(d.pid())
	}
	teardown()

	// References, outside the timed region: the in-process file path for
	// every distinct (trace, filter) pair answered. In the traced run the
	// reference comes from the layer-by-layer probe of the same calls
	// vanid makes, which also yields the filtered per-layer metrics.
	refs := map[whatifReq][]byte{}
	var pairs []whatifReq
	for _, op := range ops {
		r := stream[op.req]
		if _, ok := refs[r]; !ok && op.err == nil {
			refs[r] = nil
			pairs = append(pairs, r)
		}
	}
	var tot stackTotals
	if e.traced {
		for i, r := range pairs {
			f, err := parseQuery(r.query)
			if err != nil {
				return nil, err
			}
			g := gs[r.g]
			res, err := characterizeLayers(context.Background(), e.tr, e.tr.req(), 0, g.name(), g.path, analyzerOptions(0, f))
			if err != nil {
				return nil, fmt.Errorf("reference %s?%s: %w", g.name(), r.query, err)
			}
			tot.add(res)
			refs[r] = res.yaml
			if i < 2*len(gs) {
				if _, err := characterizeLayers(context.Background(), e.tr, e.tr.req(), 0, g.name(), g.path, analyzerOptions(1, f)); err != nil {
					return nil, err
				}
			}
		}
	} else {
		// Two references at a time, each sequential: the output is the
		// same at any parallelism.
		ys := make([][]byte, len(pairs))
		errs := make([]error, len(pairs))
		fanOut(2, len(pairs), func(i int) {
			f, err := parseQuery(pairs[i].query)
			if err != nil {
				errs[i] = err
				return
			}
			c, err := vani.CharacterizeFileWith(gs[pairs[i].g].path, analyzerOptions(1, f))
			if err != nil {
				errs[i] = err
				return
			}
			ys[i] = vani.ToYAML(c)
		})
		for i, r := range pairs {
			if errs[i] != nil {
				return nil, fmt.Errorf("reference %s?%s: %w", gs[r.g].name(), r.query, errs[i])
			}
			refs[r] = ys[i]
		}
	}
	if e.traced {
		tot.report(e.tr, o.layers)
		o.layers["colstore.scan_ms.filtered"] = o.layers["colstore.scan_ms"]
		o.layers["core.analyze_ms.filtered"] = o.layers["core.analyze_ms"]
		for _, w := range paperWorkloads {
			o.layers["core.analyze_ms."+w] = e.tr.medianMS("core.analyze", w)
		}
		o.layers["core.analyze_seq_ms.montage-mpi"] = e.tr.medianMS("core.analyze_seq", "montage-mpi")
		o.layers["sim.events_per_s"] = simEventsPerS(gs)
	}

	var c checks
	hits := 0
	for _, op := range ops {
		o.attempted++
		r := stream[op.req]
		if op.err != nil {
			o.fail(e, 1, "%s?%s: %v", gs[r.g].name(), r.query, op.err)
			continue
		}
		if op.hit {
			hits++
		}
		c.compare(e, "service-whatif "+gs[r.g].name()+"?"+r.query, op.body, e.ref(refs[r]))
	}
	o.failed += c.failed
	e.logf("service-whatif: %d requests (%d report-cache hits), %d distinct pairs, %d failed", o.attempted, hits, len(refs), o.failed)
	return o, nil
}

// serverLayers turns /metrics deltas over n requests into the server's
// per-layer metrics.
func serverLayers(dm map[string]int64, n int64, layers map[string]float64) {
	layers["server.block_cache_hit_frac"] = frac(dm["block_cache_hits"], dm["block_cache_hits"]+dm["block_cache_misses"])
	layers["server.decoded_bytes_per_req"] = frac(dm["scan_decoded_bytes"], n)
	layers["server.report_cache_hit_frac"] = frac(dm["cache_hits"], dm["cache_hits"]+dm["cache_misses"])
	layers["server.rows_kept_frac"] = frac(dm["scan_rows_kept"], dm["scan_rows_total"])
	layers["server.blocks_pruned_frac"] = frac(dm["scan_blocks_pruned"], dm["scan_blocks_total"])
	layers["server.group_filtered_served_frac"] = frac(dm["scan_group_filtered_served"], dm["scan_group_filtered_served"]+dm["scan_group_filtered_fallback"])
	layers["server.runisect_served_frac"] = frac(dm["scan_runisect_served"], dm["scan_runisect_served"]+dm["scan_runisect_fallback"])
	layers["server.jobs_rejected"] = float64(dm["jobs_rejected"])
}
