package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vani"
)

// traceSpec names one generated input trace: a paper workload simulated
// at a node count and a fraction of paper scale.
type traceSpec struct {
	workload string
	nodes    int
	scale    float64
	seed     int64
}

// genTrace is one generated input, written to disk as VANITRC2 v2.2 with
// the default (auto) codecs.
type genTrace struct {
	spec    traceSpec
	path    string
	data    []byte
	events  int
	runtime time.Duration
	ranks   int
	res     *vani.Result // the in-memory run; nil unless the caller kept it
	simTime time.Duration
}

func (g *genTrace) name() string { return g.spec.workload }

// generate simulates every spec through the public API (vani.New,
// vani.Run, vani.WriteTraceWith) on two workers and writes the traces into
// dir. keep retains the in-memory runs for reference computations.
func generate(e *env, dir string, specs []traceSpec, keep bool) ([]*genTrace, error) {
	out := make([]*genTrace, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = generateOne(e, dir, i, specs[i], keep)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", specs[i].workload, err)
		}
	}
	return out, nil
}

func generateOne(e *env, dir string, i int, ts traceSpec, keep bool) (*genTrace, error) {
	w, err := vani.New(ts.workload)
	if err != nil {
		return nil, err
	}
	sp := w.DefaultSpec()
	sp.Nodes = ts.nodes
	sp.Scale = ts.scale
	sp.Seed = ts.seed
	t0 := time.Now()
	res, err := vani.Run(w, sp)
	if err != nil {
		return nil, err
	}
	simTime := time.Since(t0)
	var buf bytes.Buffer
	if err := vani.WriteTraceWith(&buf, res.Trace, vani.TraceWriteOptions{}); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%02d-%s.trc", i, ts.workload))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	g := &genTrace{
		spec:    ts,
		path:    path,
		data:    buf.Bytes(),
		events:  len(res.Trace.Events),
		runtime: res.Runtime,
		ranks:   res.Trace.Meta.Ranks,
		simTime: simTime,
	}
	if keep {
		g.res = res
	}
	return g, nil
}

// describe lists each trace's size for the run log.
func describe(gs []*genTrace) string {
	var b strings.Builder
	for _, g := range gs {
		fmt.Fprintf(&b, " %s=%dev/%dB", g.name(), g.events, len(g.data))
	}
	return b.String()
}

// simEventsPerS is the simulator's event rate over the generated inputs.
func simEventsPerS(gs []*genTrace) float64 {
	var ev int
	var d time.Duration
	for _, g := range gs {
		ev += g.events
		d += g.simTime
	}
	if d <= 0 {
		return 0
	}
	return float64(ev) / d.Seconds()
}

func totalEvents(gs []*genTrace) (n int) {
	for _, g := range gs {
		n += g.events
	}
	return n
}

func totalBytes(gs []*genTrace) (n int) {
	for _, g := range gs {
		n += len(g.data)
	}
	return n
}
