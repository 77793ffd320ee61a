// Command benchcmp guards against bench regressions: it compares one metric
// of the benchmarks under a name prefix in a freshly captured bench record
// (scripts/benchjson output) against a committed baseline and exits nonzero
// when any arm got worse by more than the allowed fraction. The metric is
// MB/s (higher is better, the default) or ns/op or bytes/op (lower is
// better) — the latter two guard benches that report no MB/s.
//
// Usage: benchcmp [-prefix BenchmarkX] [-metric mb_per_s|ns_per_op|bytes_per_op]
//
//	[-max-regress 0.15] baseline.json new.json
//
// Sub-benchmark names are normalized by stripping the trailing -GOMAXPROCS
// suffix so records captured at different core counts still line up; a
// core-count mismatch is reported as a warning because absolute figures are
// only comparable like for like. Arms present in the baseline but missing
// from the new record are an error — a silently dropped bench is not a pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
)

type result struct {
	Name       string  `json:"name"`
	MBPerSec   float64 `json:"mb_per_s"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
}

// metrics maps each -metric name to its field and unit, and whether a
// larger value is better.
var metrics = map[string]struct {
	get    func(result) float64
	unit   string
	higher bool
}{
	"mb_per_s":     {func(r result) float64 { return r.MBPerSec }, "MB/s", true},
	"ns_per_op":    {func(r result) float64 { return r.NsPerOp }, "ns/op", false},
	"bytes_per_op": {func(r result) float64 { return r.BytesPerOp }, "B/op", false},
}

type record struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []result `json:"results"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

func load(path, prefix string, get func(result) float64) (record, map[string]float64, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, nil, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := make(map[string]float64)
	for _, r := range rec.Results {
		name := procSuffix.ReplaceAllString(r.Name, "")
		if v := get(r); strings.HasPrefix(name, prefix) && v > 0 {
			vals[name] = v
		}
	}
	return rec, vals, nil
}

func main() {
	maxRegress := flag.Float64("max-regress", 0.15,
		"maximum allowed fractional loss per arm before failing")
	prefix := flag.String("prefix", "BenchmarkCompressedDomain",
		"benchmark name prefix to compare")
	metricName := flag.String("metric", "mb_per_s",
		"metric to compare: mb_per_s (higher is better), ns_per_op or bytes_per_op (lower is better)")
	flag.Parse()
	m, ok := metrics[*metricName]
	if flag.NArg() != 2 || !ok {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-prefix P] [-metric mb_per_s|ns_per_op|bytes_per_op] [-max-regress 0.15] baseline.json new.json")
		os.Exit(2)
	}

	baseRec, base, err := load(flag.Arg(0), *prefix, m.get)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	newRec, cur, err := load(flag.Arg(1), *prefix, m.get)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: baseline %s has no %s results with %s\n",
			flag.Arg(0), *prefix, m.unit)
		os.Exit(1)
	}
	if baseRec.GOMAXPROCS != newRec.GOMAXPROCS {
		fmt.Fprintf(os.Stderr,
			"benchcmp: warning: gomaxprocs differs (baseline %d, new %d); deltas include the core-count change\n",
			baseRec.GOMAXPROCS, newRec.GOMAXPROCS)
	}

	failed := false
	for name, want := range base {
		got, ok := cur[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchcmp: FAIL %s: present in baseline, missing from new record\n", name)
			failed = true
			continue
		}
		delta := (got - want) / want
		loss := delta
		if m.higher {
			loss = -delta
		}
		status := "ok"
		if loss > *maxRegress {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("benchcmp: %-4s %s: %.2f -> %.2f %s (%+.1f%%)\n",
			status, name, want, got, m.unit, 100*delta)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchcmp: %s regressed more than %.0f%% against %s\n",
			m.unit, 100**maxRegress, flag.Arg(0))
		os.Exit(1)
	}
}
