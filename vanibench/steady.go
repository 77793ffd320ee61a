package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs each workload repeatedly, each run with its own seed,
// and prints every end-to-end metric's median and quartiles. It flags a
// metric whose spread — the interquartile distance as a share of the
// median — exceeds its bound in BENCHMARK.json, and marks one above a
// third of the bound as not yet steady. Exit status 1 means a bound was
// exceeded or a run failed.
func steadyMain(root, vanid string, args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	wls := fs.String("workloads", "all", "comma-separated workloads, or all")
	runs := fs.Int("runs", 10, "runs per workload")
	seed0 := fs.Int64("seed", 100, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bf benchmarkFile
	if b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
		if err := json.Unmarshal(b, &bf); err != nil {
			fmt.Fprintln(os.Stderr, "steady: BENCHMARK.json:", err)
			return 1
		}
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	secs := *seconds
	if secs == 0 {
		secs = bf.RunSeconds
	}
	if secs == 0 {
		secs = 10
	}
	names := workloadNames()
	if *wls != "all" {
		names = strings.Split(*wls, ",")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}

	status := 0
	for _, w := range names {
		values := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			cmd := exec.Command(self, "-root", root, "-vanid", vanid,
				"--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(secs), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			t0 := time.Now()
			err := cmd.Run()
			fmt.Fprintf(os.Stderr, "steady: %s seed %d: run took %.1fs\n", w, seed, time.Since(t0).Seconds())
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, seed, err)
				status = 1
				continue
			}
			res, err := lastResult(out.Bytes())
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: incorrect or unreadable result (%v)\n", w, seed, err)
				status = 1
				continue
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("%s (%d runs of %ds)\n", w, *runs, secs)
		fmt.Printf("  %-14s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			vs := values[d.name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			b := bounds[d.name]
			flag := ""
			switch {
			case d.name == "setup_s":
				flag = "(spread not gated)"
			case b > 0 && spread > b:
				flag = "EXCEEDS BOUND"
				status = 1
			case b > 0 && spread > b/3:
				flag = "above bound/3"
			}
			fmt.Printf("  %-14s %12.6g %12.6g %12.6g %8.4f %6.3g %s %s\n", d.name, q1, q2, q3, spread, b, d.unit, flag)
		}
	}
	return status
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, err
	}
	return &r, nil
}
