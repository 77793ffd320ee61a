package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"vani"
	"vani/internal/repo"
	"vani/internal/trace"
)

// fleetBase is one small trace per paper workload; the corpus repeats it
// over fleetSeeds seeds, so every workload label holds several distinct
// traces.
var fleetBase = []traceSpec{
	{workload: "cm1", nodes: 32, scale: 0.02},
	{workload: "hacc", nodes: 4, scale: 0.1},
	{workload: "cosmoflow", nodes: 32, scale: 0.004},
	{workload: "jag", nodes: 32, scale: 0.001},
	{workload: "montage-mpi", nodes: 4, scale: 0.01},
	{workload: "montage-pegasus", nodes: 16, scale: 0.003},
}

const (
	fleetSeeds   = 6
	fleetClients = 2
	// fleetQueryPasses is how often each cycle asks the query list.
	fleetQueryPasses = 2
	// fleetCacheBytes is the -cache-bytes budget vanid runs with, smaller
	// than the corpus's block-cache charge so fleet fan-out evicts.
	fleetCacheBytes = 2 << 20
)

func fleetCorpus(seed int64) []traceSpec {
	var out []traceSpec
	for s := 0; s < fleetSeeds; s++ {
		for _, b := range fleetBase {
			b.seed = seed*1009 + int64(len(out)) + 1
			out = append(out, b)
		}
	}
	return out
}

// fleetQueries is the fixed query list: all traces and each workload
// label, without and with a filter.
func fleetQueries() []string {
	var qs []string
	for _, w := range append([]string{""}, paperWorkloads...) {
		v := url.Values{}
		if w != "" {
			v.Set("workload", w)
		}
		qs = append(qs, v.Encode())
		v.Set("ops", "data")
		qs = append(qs, v.Encode())
	}
	return qs
}

// fleetCycle is one ingest → compact → query episode against a fresh
// repository.
type fleetCycle struct {
	ingestBody  [][]byte // by corpus index
	ingestErr   []error
	ingestTime  time.Duration
	compactTime time.Duration
	compactErr  error
	queryLat    []time.Duration
	queryBody   [][]byte // by query index
	queryErr    []error
	metrics     map[string]int64 // /metrics delta over the cycle
	dataDir     string
}

// blockCacheCharge is vanid's worst-case block-cache charge for a trace:
// its bytes twice plus a memo row per event.
func blockCacheCharge(gs []*genTrace) int64 {
	var n int64
	for _, g := range gs {
		n += 2*int64(len(g.data)) + int64(g.events)*trace.MemoRowBytes
	}
	return n
}

// runFleet writes alongside reads: vanid in repository mode ingests a
// corpus of small traces from two clients, compacts, and answers a fixed
// list of fleet queries. Each cycle starts vanid on a fresh data dir.
func runFleet(e *env) (*outcome, error) {
	o := newOutcome()
	var (
		gs    []*genTrace
		d     *daemon
		cycle int
	)
	teardown := func() {
		d.stop()
		d = nil
	}
	defer func() { teardown() }()
	start := func() (string, error) {
		cycle++
		vdir, err := e.dir(fmt.Sprintf("fleet-%d", cycle))
		if err != nil {
			return "", err
		}
		dataDir := filepath.Join(vdir, "data")
		d, err = startVanid(e, vdir, "-data-dir", dataDir, "-cache-bytes", fmt.Sprint(fleetCacheBytes))
		return dataDir, err
	}
	var dataDir string
	setupS, err := repeatSetup(e.setups, func() error {
		dir, err := e.dir("corpus")
		if err != nil {
			return err
		}
		if gs, err = generate(e, dir, fleetCorpus(e.seed), false); err != nil {
			return err
		}
		dataDir, err = start()
		return err
	}, teardown)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	e.logf("fleet-ingest:%s", describe(gs[:len(fleetBase)]))
	e.logf("fleet-ingest: %d traces, %d events, %d encoded bytes, block-cache charge %.1f MiB against a %d MiB budget",
		len(gs), totalEvents(gs), totalBytes(gs), float64(blockCacheCharge(gs))/(1<<20), fleetCacheBytes>>20)

	queries := fleetQueries()
	var asked []string // the query list, fleetQueryPasses times
	for p := 0; p < fleetQueryPasses; p++ {
		asked = append(asked, queries...)
	}
	var cycles []*fleetCycle
	runCycles := func(dur time.Duration, tr *tracer) (out []*fleetCycle, rss []float64, err error) {
		t0 := time.Now()
		for len(out) == 0 || time.Since(t0) < dur {
			if d == nil {
				if dataDir, err = start(); err != nil {
					return nil, nil, err
				}
			}
			sampler := sampleRSS(d.pid())
			c, err := fleetRun(e, d, gs, asked)
			rss = append(rss, sampler.Stop()...)
			if err != nil {
				return nil, nil, err
			}
			c.dataDir = dataDir
			out = append(out, c)
			e.logf("fleet-ingest: cycle %d: ingest %.0f ms, compact %.0f ms (uncalibrated)",
				len(out), ms(c.ingestTime), ms(c.compactTime))
			if tr != nil {
				o.layers["server.vmhwm_mb"] = max(o.layers["server.vmhwm_mb"], vmHWM(d.pid()))
			}
			teardown()
		}
		return out, rss, nil
	}
	// ingestRate is the median cycle's traces stored per second,
	// uncalibrated.
	ingestRate := func(cs []*fleetCycle) float64 {
		var rs []float64
		for _, c := range cs {
			rs = append(rs, float64(len(gs))/c.ingestTime.Seconds())
		}
		return median(rs)
	}

	if !e.traced {
		var rss []float64
		cycles, rss, err = runCycles(e.seconds, nil)
		if err != nil {
			return nil, err
		}
		o.e2e["rss_p90_mb"] = quantile(rss, 0.9)
		slow := e.cal.phaseSlowness()
		o.e2e["work_per_s"] = ingestRate(cycles) * slow
		lats := map[int][]float64{} // by query
		for _, c := range cycles {
			for i, l := range c.queryLat {
				lats[i%len(queries)] = append(lats[i%len(queries)], ms(l)/slow)
			}
		}
		e.logf("fleet-ingest: slowness %.3f, uncalibrated %.4g traces/s", slow, ingestRate(cycles))
		o.e2e["op_p50_ms"] = meanQuantile(lats, 0.5)
		o.e2e["op_p90_ms"] = meanQuantile(lats, 0.9)
	} else {
		plain, _, err := runCycles(e.seconds/2, nil)
		if err != nil {
			return nil, err
		}
		traced, _, err := runCycles(e.seconds/2, e.tr)
		if err != nil {
			return nil, err
		}
		cycles = append(plain, traced...)
		o.layers["bench.trace_overhead_frac"] = 1 - ingestRate(traced)/ingestRate(plain)
		sum := map[string]int64{}
		for _, c := range traced {
			for k, v := range c.metrics {
				sum[k] += v
			}
		}
		serverLayers(sum, int64(len(traced)*(len(gs)+len(asked))), o.layers)
		o.layers["server.block_cache_mb"] = float64(fleetCacheBytes) / (1 << 20)
		if err := fleetProbe(e, gs, queries, o.layers); err != nil {
			return nil, err
		}
		o.layers["sim.events_per_s"] = simEventsPerS(gs)
		o.layers["bench.samples"] = float64(len(traced) * len(asked))
	}

	// References, outside the timed region.
	ingestRefs := make([][]byte, len(gs))
	refErrs := make([]error, len(gs))
	fanOut(2, len(gs), func(i int) {
		c, err := vani.CharacterizeFileWith(gs[i].path, analyzerOptions(1, vani.TraceFilter{}))
		if err != nil {
			refErrs[i] = fmt.Errorf("reference %s: %w", gs[i].path, err)
			return
		}
		ingestRefs[i] = vani.ToYAML(c)
	})
	for _, err := range refErrs {
		if err != nil {
			return nil, err
		}
	}
	queryRefs, err := fleetReference(cycles[len(cycles)-1].dataDir, queries)
	if err != nil {
		return nil, err
	}

	var c checks
	for n, cy := range cycles {
		for i := range gs {
			o.attempted++
			if cy.ingestErr[i] != nil {
				o.fail(e, 1, "cycle %d ingest %s: %v", n, gs[i].name(), cy.ingestErr[i])
				continue
			}
			c.compare(e, fmt.Sprintf("fleet-ingest cycle %d ingest %s", n, gs[i].path), cy.ingestBody[i], e.ref(ingestRefs[i]))
		}
		o.attempted++
		if cy.compactErr != nil {
			o.fail(e, 1, "cycle %d compact: %v", n, cy.compactErr)
		}
		for i, q := range asked {
			o.attempted++
			if cy.queryErr[i] != nil {
				o.fail(e, 1, "cycle %d fleet query %q: %v", n, q, cy.queryErr[i])
				continue
			}
			// Repeats must agree with the first cycle, and every answer
			// with the in-process fleet query over the same data dir.
			if n > 0 && !bytes.Equal(cy.queryBody[i], cycles[0].queryBody[i]) {
				o.fail(e, 1, "cycle %d fleet query %q differs from cycle 0", n, q)
				continue
			}
			c.compare(e, fmt.Sprintf("fleet-ingest cycle %d query %q", n, q), cy.queryBody[i], e.ref(queryRefs[i%len(queries)]))
		}
	}
	o.failed += c.failed
	e.logf("fleet-ingest: %d cycles, %d operations, %d failed", len(cycles), o.attempted, o.failed)
	return o, nil
}

// fleetRun drives one cycle against a freshly started daemon.
func fleetRun(e *env, d *daemon, gs []*genTrace, queries []string) (*fleetCycle, error) {
	tr := e.tr
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	c := &fleetCycle{
		ingestBody: make([][]byte, len(gs)),
		ingestErr:  make([]error, len(gs)),
		queryLat:   make([]time.Duration, len(queries)),
		queryBody:  make([][]byte, len(queries)),
		queryErr:   make([]error, len(queries)),
	}
	e.cal.between()
	t0 := time.Now()
	fanOut(fleetClients, len(gs), func(i int) {
		req := tr.req()
		id := tr.startL("fleet.ingest", gs[i].name(), 0, req)
		c.ingestBody[i], _, c.ingestErr[i] = d.characterize("", gs[i].data)
		tr.end(id)
	})
	c.ingestTime = time.Since(t0)

	e.cal.between()
	id := tr.start("fleet.compact", 0, tr.req())
	s := time.Now()
	st, _, b, err := d.do("POST", "/v1/compact", nil)
	c.compactTime = time.Since(s)
	tr.end(id)
	var packed struct {
		Packed int `json:"packed"`
	}
	switch {
	case err != nil:
		c.compactErr = err
	case st != http.StatusOK:
		c.compactErr = fmt.Errorf("status %d: %s", st, bytes.TrimSpace(b))
	case json.Unmarshal(b, &packed) != nil || packed.Packed != len(gs):
		c.compactErr = fmt.Errorf("packed %d of %d traces: %s", packed.Packed, len(gs), bytes.TrimSpace(b))
	}

	e.cal.between()
	fanOut(fleetClients, len(queries), func(i int) {
		req := tr.req()
		id := tr.startL("fleet.query", queries[i], 0, req)
		s := time.Now()
		st, _, b, err := d.do("GET", "/fleet/query?"+queries[i], nil)
		c.queryLat[i] = time.Since(s)
		tr.end(id)
		switch {
		case err != nil:
			c.queryErr[i] = err
		case st != http.StatusOK:
			c.queryErr[i] = fmt.Errorf("status %d: %s", st, bytes.TrimSpace(b))
		default:
			c.queryBody[i] = b
		}
	})
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	c.metrics = delta(m0, m1)
	return c, nil
}

// fanOut runs fn(0..n-1) on at most workers goroutines, each taking the
// next index when it finishes the previous one.
func fanOut(workers, n int, fn func(i int)) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// fleetReference answers the query list in process with repo.FleetQuery
// and repo.DefaultCharacterizer over a stopped daemon's data dir.
func fleetReference(dataDir string, queries []string) ([][]byte, error) {
	rp, err := repo.Open(dataDir, repo.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer rp.Close()
	out := make([][]byte, len(queries))
	for i, q := range queries {
		v, err := url.ParseQuery(q)
		if err != nil {
			return nil, err
		}
		f, err := parseQuery(q)
		if err != nil {
			return nil, err
		}
		rep, err := rp.FleetQuery(context.Background(), repo.Query{Workload: v.Get("workload"), Filter: f},
			repo.DefaultCharacterizer(cliStorage(), 1))
		if err != nil {
			return nil, fmt.Errorf("reference fleet query %q: %w", q, err)
		}
		out[i] = rep.YAML()
	}
	return out, nil
}

// fleetProbe measures the repository and analysis layers in process over
// the same corpus: repo.Add and repo.CompactNow spans, the fleet queries
// with a timing-wrapped CharFunc, and the analysis stack per trace at the
// fleet's parallelism 1 and at the default.
func fleetProbe(e *env, gs []*genTrace, queries []string, layers map[string]float64) error {
	dir, err := e.dir("probe-repo")
	if err != nil {
		return err
	}
	rp, err := repo.Open(dir, repo.Options{})
	if err != nil {
		return err
	}
	defer rp.Close()
	tr := e.tr
	var uploaded int64
	for _, g := range gs {
		id := tr.startL("repo.add", g.name(), 0, tr.req())
		_, _, err := rp.Add(bytes.NewReader(g.data))
		tr.end(id)
		if err != nil {
			return err
		}
		uploaded += int64(len(g.data))
	}
	id := tr.start("repo.compact", 0, tr.req())
	_, err = rp.CompactNow()
	tr.end(id)
	if err != nil {
		return err
	}
	layers["repo.space_amp"] = frac(rp.Stats().Bytes, uploaded)

	inner := repo.DefaultCharacterizer(cliStorage(), 1)
	var selfs []float64
	for _, q := range queries {
		v, _ := url.ParseQuery(q)
		f, err := parseQuery(q)
		if err != nil {
			return err
		}
		req := tr.req()
		root := tr.startL("repo.fleet_query", q, 0, req)
		_, err = rp.FleetQuery(context.Background(), repo.Query{Workload: v.Get("workload"), Filter: f},
			func(ctx context.Context, h *repo.Handle, f trace.Filter) (*vani.Characterization, error) {
				id := tr.start("repo.fleet_char", root, req)
				defer tr.end(id)
				return inner(ctx, h, f)
			})
		tr.end(root)
		if err != nil {
			return err
		}
		selfs = append(selfs, ms(tr.selfTime(root)))
	}
	layers["repo.add_ms"] = tr.medianMS("repo.add", "")
	layers["repo.compact_ms"] = tr.medianMS("repo.compact", "")
	layers["repo.fleet_char_ms"] = tr.medianMS("repo.fleet_char", "")
	layers["repo.fleet_self_ms"] = median(selfs)

	var tot stackTotals
	for _, g := range gs {
		for _, par := range []int{1, 0} {
			r, err := characterizeLayers(context.Background(), tr, tr.req(), 0, g.name(), g.path, analyzerOptions(par, vani.TraceFilter{}))
			if err != nil {
				return err
			}
			if par == 1 {
				tot.add(r)
			}
		}
	}
	tot.report(tr, layers)
	for _, w := range paperWorkloads {
		layers["core.analyze_ms."+w] = tr.medianMS("core.analyze", w)
	}
	layers["core.analyze_seq_ms.montage-mpi"] = tr.medianMS("core.analyze_seq", "montage-mpi")
	return nil
}
