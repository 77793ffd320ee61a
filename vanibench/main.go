// Command vanibench is vani's end-to-end benchmark. It generates every
// input from its seed through the public API, drives one workload for a
// fixed time, checks every output against a reference computed outside
// the timed region, and prints its metrics with their units; the last
// line of standard output is one JSON object. End-to-end times are
// calibrated against a fixed kernel timed between operations (calib.go).
//
//	bash vanibench/run.sh --workload file-report --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run also records spans around the calls into each
// layer and reports the per-layer metrics instead of the end-to-end ones;
// the spans are written to .bench_build/spans/ when the run ends.
//
// The steady subcommand runs workloads repeatedly with distinct seeds and
// reports each end-to-end metric's median, quartiles and spread against
// the bounds in BENCHMARK.json:
//
//	bash vanibench/run.sh steady --workloads all --runs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloadRuns maps each workload name to the function that runs it.
var workloadRuns = map[string]func(*env) (*outcome, error){
	"file-report":    runFileReport,
	"service-whatif": runWhatif,
	"fleet-ingest":   runFleet,
	"sweep-fig7":     runSweep,
}

func workloadNames() []string {
	var ns []string
	for n := range workloadRuns {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func main() { os.Exit(benchMain(os.Args[1:])) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("vanibench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: one of file-report, service-whatif, fleet-ingest, sweep-fig7")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	traceOn := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	vanid := fs.String("vanid", "", "vanid binary built from the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "steady" {
		return steadyMain(*root, *vanid, fs.Args()[1:])
	}
	run, ok := workloadRuns[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "vanibench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "vanibench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vanibench:", err)
		return 1
	}
	build := filepath.Join(absRoot, ".bench_build")
	work := filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vanibench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{
		root:    absRoot,
		vanid:   *vanid,
		work:    work,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceOn == 1,
		setups:  3,
		log:     os.Stderr,
	}
	if e.traced {
		e.tr = newTracer()
	}
	e.cal = &calibrator{}
	o, err := run(e)
	if err == nil && e.traced {
		o.layers["bench.slowness"] = e.cal.phaseSlowness()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vanibench: %s: %v\n", *workload, err)
		return 1
	}

	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, o.e2e
	if e.traced {
		defs, vals = perLayer, o.layers
		dir := filepath.Join(build, "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = e.tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vanibench: writing spans:", err)
		}
	}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-40s %16.6g %s\n", d.name, v, d.unit)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vanibench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
