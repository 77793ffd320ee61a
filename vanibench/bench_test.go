package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	tr := newTracer()
	tr.all = []span{
		{ID: 1, Name: "q", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 90},
		{ID: 5, Parent: 2, Name: "g", Start: 0, End: 100}, // grandchild: not counted
	}
	if got := tr.selfTime(1); got != 40 {
		t.Fatalf("self time = %d, want 40", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, tr.req())
	tr.end(id)
	if id != 0 || tr.spans("x", "") != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

// buildVanid compiles the daemon the service workloads drive.
func buildVanid(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vanid")
	out, err := exec.Command("go", "build", "-o", bin, "vani/cmd/vanid").CombinedOutput()
	if err != nil {
		t.Fatalf("building vanid: %v\n%s", err, out)
	}
	return bin
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

// TestChecksFire runs every workload for a second twice: against the true
// references every operation passes, and against corrupted references the
// run reports failures, so failed/attempted > 0. The inputs keep the
// benchmark's sizes: montage-mpi's simulator panics at some smaller
// scales (16 nodes at scale 0.05 reads past the end of a file).
func TestChecksFire(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	vanid := buildVanid(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, corrupt := range []bool{false, true} {
			e := &env{
				root:    root,
				vanid:   vanid,
				work:    t.TempDir(),
				seed:    7,
				seconds: time.Second,
				setups:  1,
				log:     testLog{t},
				corrupt: corrupt,
				cal:     &calibrator{},
			}
			o, err := workloadRuns[name](e)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if o.attempted == 0 || o.failed > o.attempted {
				t.Fatalf("%s: attempted %d, failed %d", name, o.attempted, o.failed)
			}
			if corrupt && o.failed == 0 {
				t.Errorf("%s: corrupted references went unnoticed (%d operations)", name, o.attempted)
			}
			if !corrupt && o.failed != 0 {
				t.Errorf("%s: %d of %d operations failed against true references", name, o.failed, o.attempted)
			}
		}
	}
}

func TestPaperBand(t *testing.T) {
	for s, want := range map[string]bool{"2.71x": true, "2.20x": true, "4.60x": true, "2.19x": false, "4.61x": false, "inf": false, "": false} {
		if got := inPaperBand(s); got != want {
			t.Errorf("inPaperBand(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestCalibKernelAllocatesNothing(t *testing.T) {
	calibKernel()
	if n := testing.AllocsPerRun(3, func() { calibUnit(calibWorkers[0]) }); n != 0 {
		t.Fatalf("calibUnit allocates %v times per run", n)
	}
}

// TestCalibKernelNominal prints the kernel's time on this machine, which
// calibNominalMS should match on a quiet reference machine.
func TestCalibKernelNominal(t *testing.T) {
	var ks []float64
	for i := 0; i < 40; i++ {
		ks = append(ks, calibKernel())
	}
	q1, q2, q3 := quartiles(ks)
	t.Logf("calibration kernel: q1 %.2f ms, median %.2f ms, q3 %.2f ms (nominal %.0f ms)", q1, q2, q3, calibNominalMS)
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// runs print in step: names, units and workloads.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range bf.Workloads {
		ws = append(ws, w.Name)
	}
	sort.Strings(ws)
	if !slices.Equal(ws, workloadNames()) {
		t.Errorf("workloads %v, runs %v", ws, workloadNames())
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the run prints %s [%s]", what, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}
