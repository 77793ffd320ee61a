// Command benchjson converts `go test -bench` output into the JSON bench
// record scripts/bench.sh publishes (BENCH_PR2.json): one entry per
// benchmark with ns/op and any extra metric pairs the bench emits (MB/s
// from SetBytes, B/op and allocs/op from -benchmem, custom ReportMetric
// units), plus environment fields (GOMAXPROCS, CPU count, go version) and
// the derived analyzer and codec speedups.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Name string  `json:"name"`
	N    int64   `json:"iterations"`
	NsOp float64 `json:"ns_per_op"`
	// Standard throughput/allocation metrics, present when the bench
	// calls SetBytes / runs under -benchmem.
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any other ReportMetric units (events/op, speedup, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
}

type record struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Note       string   `json:"note"`
	Results    []result `json:"results"`
	// AnalyzerSpeedup is seq-ns/par-ns of BenchmarkAnalyzerParallelism —
	// PR1's headline number. Meaningful only when gomaxprocs > 1.
	AnalyzerSpeedup float64 `json:"analyzer_speedup_seq_over_par"`
	// DecodeSpeedup is v1-serial-ns/v2-parallel-ns of
	// BenchmarkTraceDecodeToTable — the VANITRC2 headline number: how much
	// faster log bytes turn into analyzable column chunks under the block
	// format's parallel decode than under the v1 serial stream.
	DecodeSpeedup float64 `json:"decode_speedup_v1_over_v2par"`
	// PrunedScanSpeedup is full-ns/window25-pruned-ns of
	// BenchmarkScanPlanner — the scan-planner headline number: how much
	// faster a 25% time window characterizes when the predicate pushes down
	// to the footer index than materializing the whole log. Both cases
	// report MB/s over the same encoded bytes.
	PrunedScanSpeedup float64 `json:"pruned_scan_speedup_full_over_window25,omitempty"`
	// ProjectedScanSpeedup extends the pruned scan with a declared
	// two-column projection (window25-projected), skipping the other nine
	// column decodes entirely.
	ProjectedScanSpeedup float64 `json:"projected_scan_speedup_full_over_window25,omitempty"`
	// CodecDecodeSpeedup is v21-flate-ns/v22-auto-ns of
	// BenchmarkCodecMatrix — the v2.2 headline number: how much faster a
	// full-column scan decodes under the per-segment cost-model codecs
	// than under the v2.1 varint layout wrapped in flate.
	CodecDecodeSpeedup float64 `json:"codec_decode_speedup_v21flate_over_v22auto,omitempty"`
	// CodecSizeRatio is the v22-auto encoded size over the v21-flate
	// encoded size on the same fixture. The regression guard requires
	// this to stay at or below 1.05.
	CodecSizeRatio float64 `json:"codec_size_ratio_v22auto_over_v21flate,omitempty"`
	// CompressedDomainSpeedup is kernels-off-ns/kernels-on-ns of
	// BenchmarkCompressedDomain — the compressed-domain execution headline:
	// the same filtered full characterization with the kernel registry
	// serving the predicate from encoded segments vs the materialized row
	// path. The bench also records the allocs/op of both arms; the
	// compressed path must win both.
	CompressedDomainSpeedup float64 `json:"compressed_domain_speedup_off_over_on,omitempty"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson <go-test-bench-output-file>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	rec := record{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "speedups are wall-clock ratios of paths with bit-identical outputs; " +
			"on a single-core runner (gomaxprocs=1) parallel paths degenerate to " +
			"sequential, so analyzer_speedup stays ~1 by design while " +
			"decode_speedup still shows the v2 block decoder's contiguous-buffer " +
			"advantage over the v1 byte-at-a-time stream.",
	}
	var seqNs, parNs, v1Ns, v2ParNs, fullNs, prunedNs, projNs float64
	var v21FlateNs, v22AutoNs, v21FlateBytes, v22AutoBytes float64
	var kernelsOnNs, kernelsOffNs float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines: name iterations ns/op "ns/op" [value unit]...
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		n, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		r := result{Name: fields[0], N: n, NsOp: ns}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "MB/s":
				r.MBPerSec = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[fields[i+1]] = v
			}
		}
		rec.Results = append(rec.Results, r)
		switch {
		case strings.HasPrefix(r.Name, "BenchmarkAnalyzerParallelism/seq"):
			seqNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkAnalyzerParallelism/par"):
			parNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkTraceDecodeToTable/v1-serial"):
			v1Ns = ns
		case strings.HasPrefix(r.Name, "BenchmarkTraceDecodeToTable/v2-parallel"):
			v2ParNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkScanPlanner/full"):
			fullNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkScanPlanner/window25-pruned"):
			prunedNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkScanPlanner/window25-projected"):
			projNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkCodecMatrix/v21-flate"):
			v21FlateNs = ns
			v21FlateBytes = r.Extra["enc-bytes"]
		case strings.HasPrefix(r.Name, "BenchmarkCodecMatrix/v22-auto"):
			v22AutoNs = ns
			v22AutoBytes = r.Extra["enc-bytes"]
		case strings.HasPrefix(r.Name, "BenchmarkCompressedDomain/kernels-on"):
			kernelsOnNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkCompressedDomain/kernels-off"):
			kernelsOffNs = ns
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if seqNs > 0 && parNs > 0 {
		rec.AnalyzerSpeedup = seqNs / parNs
	}
	if v1Ns > 0 && v2ParNs > 0 {
		rec.DecodeSpeedup = v1Ns / v2ParNs
	}
	if fullNs > 0 && prunedNs > 0 {
		rec.PrunedScanSpeedup = fullNs / prunedNs
	}
	if fullNs > 0 && projNs > 0 {
		rec.ProjectedScanSpeedup = fullNs / projNs
	}
	if v21FlateNs > 0 && v22AutoNs > 0 {
		rec.CodecDecodeSpeedup = v21FlateNs / v22AutoNs
	}
	if v21FlateBytes > 0 && v22AutoBytes > 0 {
		rec.CodecSizeRatio = v22AutoBytes / v21FlateBytes
	}
	if kernelsOnNs > 0 && kernelsOffNs > 0 {
		rec.CompressedDomainSpeedup = kernelsOffNs / kernelsOnNs
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
