package spec

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"vani/internal/advisor"
	"vani/internal/core"
	"vani/internal/replay"
	"vani/internal/storage"
	"vani/internal/workloads"
)

// The sweep layer: a workload (inline DSL doc or a registered generator)
// plus a parameter grid expands into concrete simulation runs, and the
// outcomes reduce into a comparative report — the paper's case-study
// reconfiguration experiments (Figures 7 and 8) as an automated search.
// Reports are rendered with yamlenc so the CLI and the vanid service
// produce byte-identical artifacts for the same sweep document.

// Bounds on sweep shape.
const (
	maxAxes          = 8
	maxValuesPerAxis = 16
	maxPoints        = 256
)

// sweepAxes maps grid parameter names to how a value applies to a run
// spec. kind "choice" values are enumerated; "size" values are byte
// expressions; "bool" values are booleans.
var sweepAxes = map[string]string{
	"staging":             "choice", // pfs | node-local
	"stripe_size":         "size",   // storage.PFSStripeSize
	"stdio_buffer":        "size",   // iface.StdioBufSize
	"readahead":           "size",   // storage.ReadAhead (0 disables)
	"hdf5_chunked":        "bool",   // iface.HDF5Chunked
	"relaxed_consistency": "bool",   // storage.RelaxedConsistency
	"write_compression":   "bool",   // iface.CompressionEnabled
	"cache":               "bool",   // storage.CacheEnabled
}

// Sweep is a validated sweep document.
type Sweep struct {
	Name string
	Base SweepBase

	axes         []sweepAxis
	doc          *Doc   // inline workload, or
	workloadName string // a registered generator
}

// SweepBase overrides the workload's default run spec for every point.
type SweepBase struct {
	Nodes        int
	RanksPerNode int
	Scale        float64
	Seed         int64
}

type sweepAxis struct {
	param  string
	kind   string
	labels []string // canonical value strings, in declared order
	sizes  []int64  // parsed byte values (size axes)
	bools  []bool   // parsed booleans (bool axes)
}

// ParseSweep decodes and validates a sweep document (YAML or JSON).
func ParseSweep(data []byte) (*Sweep, error) {
	tree, err := decodeTree(data)
	if err != nil {
		return nil, err
	}
	sw, err := buildSweep(tree)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return sw, nil
}

// ParseSweepFile reads and parses a sweep document from disk.
func ParseSweepFile(path string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sw, err := ParseSweep(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sw, nil
}

func buildSweep(m map[string]interface{}) (*Sweep, error) {
	if err := checkKeys(m, "sweep", "version", "name", "base", "grid", "workload"); err != nil {
		return nil, err
	}
	v, err := asInt(m["version"], "version")
	if err != nil {
		return nil, err
	}
	if v != 1 {
		return nil, fmt.Errorf("version: unsupported version %d", v)
	}
	sw := &Sweep{}
	if sw.Name, err = asString(m["name"], "name"); err != nil {
		return nil, err
	}
	if !nameRe.MatchString(sw.Name) {
		return nil, fmt.Errorf("name: bad sweep name %q", sw.Name)
	}
	if err := sw.buildBase(m["base"]); err != nil {
		return nil, err
	}
	if err := sw.buildGrid(m["grid"]); err != nil {
		return nil, err
	}
	switch w := m["workload"].(type) {
	case string:
		if !nameRe.MatchString(w) {
			return nil, fmt.Errorf("workload: bad workload name %q", w)
		}
		sw.workloadName = w
	case map[string]interface{}:
		doc, err := buildDoc(w)
		if err != nil {
			return nil, fmt.Errorf("workload: %v", err)
		}
		sw.doc = doc
	default:
		return nil, fmt.Errorf("workload: got %T, want a workload name or an inline spec", m["workload"])
	}
	return sw, nil
}

func (sw *Sweep) buildBase(v interface{}) error {
	m, err := asObj(v, "base")
	if err != nil {
		return err
	}
	if err := checkKeys(m, "base", "nodes", "ranks_per_node", "scale", "seed"); err != nil {
		return err
	}
	if raw, ok := m["nodes"]; ok {
		n, err := asInt(raw, "base.nodes")
		if err != nil {
			return err
		}
		if n < 1 || n > 1<<20 {
			return fmt.Errorf("base.nodes: %d out of range", n)
		}
		sw.Base.Nodes = int(n)
	}
	if raw, ok := m["ranks_per_node"]; ok {
		n, err := asInt(raw, "base.ranks_per_node")
		if err != nil {
			return err
		}
		if n < 1 || n > 1<<16 {
			return fmt.Errorf("base.ranks_per_node: %d out of range", n)
		}
		sw.Base.RanksPerNode = int(n)
	}
	if raw, ok := m["scale"]; ok {
		s, err := asFloat(raw, "base.scale")
		if err != nil {
			return err
		}
		if s <= 0 || s > 1 {
			return fmt.Errorf("base.scale: %v out of (0, 1]", s)
		}
		sw.Base.Scale = s
	}
	if raw, ok := m["seed"]; ok {
		n, err := asInt(raw, "base.seed")
		if err != nil {
			return err
		}
		sw.Base.Seed = n
	}
	return nil
}

func (sw *Sweep) buildGrid(v interface{}) error {
	l, err := asList(v, "grid")
	if err != nil {
		return err
	}
	if len(l) == 0 {
		return fmt.Errorf("grid: at least one axis required")
	}
	if len(l) > maxAxes {
		return fmt.Errorf("grid: %d axes exceed the %d cap", len(l), maxAxes)
	}
	seen := map[string]bool{}
	points := 1
	for i, raw := range l {
		where := fmt.Sprintf("grid[%d]", i)
		m, err := asObj(raw, where)
		if err != nil {
			return err
		}
		if err := checkKeys(m, where, "param", "values"); err != nil {
			return err
		}
		ax := sweepAxis{}
		if ax.param, err = asString(m["param"], where+".param"); err != nil {
			return err
		}
		kind, ok := sweepAxes[ax.param]
		if !ok {
			known := make([]string, 0, len(sweepAxes))
			for k := range sweepAxes {
				known = append(known, k)
			}
			sort.Strings(known)
			return fmt.Errorf("%s.param: unknown parameter %q (have %v)", where, ax.param, known)
		}
		if seen[ax.param] {
			return fmt.Errorf("%s.param: duplicate axis %q", where, ax.param)
		}
		seen[ax.param] = true
		ax.kind = kind
		vals, err := asList(m["values"], where+".values")
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			return fmt.Errorf("%s.values: at least one value required", where)
		}
		if len(vals) > maxValuesPerAxis {
			return fmt.Errorf("%s.values: %d values exceed the %d cap", where, len(vals), maxValuesPerAxis)
		}
		for j, rawVal := range vals {
			vw := fmt.Sprintf("%s.values[%d]", where, j)
			switch kind {
			case "choice":
				s, err := asString(rawVal, vw)
				if err != nil {
					return err
				}
				if ax.param == "staging" && s != "pfs" && s != "node-local" {
					return fmt.Errorf("%s: staging wants pfs or node-local, got %q", vw, s)
				}
				ax.labels = append(ax.labels, s)
			case "size":
				n, err := constVal(rawVal, vw)
				if err != nil {
					return err
				}
				if n < 0 {
					return fmt.Errorf("%s: negative size", vw)
				}
				ax.sizes = append(ax.sizes, n)
				ax.labels = append(ax.labels, fmt.Sprint(rawVal))
			case "bool":
				b, err := asBool(rawVal, vw)
				if err != nil {
					return err
				}
				ax.bools = append(ax.bools, b)
				ax.labels = append(ax.labels, fmt.Sprint(b))
			}
		}
		points *= len(ax.labels)
		if points > maxPoints {
			return fmt.Errorf("grid: more than %d points", maxPoints)
		}
		sw.axes = append(sw.axes, ax)
	}
	return nil
}

// WorkloadName reports what the sweep runs.
func (sw *Sweep) WorkloadName() string {
	if sw.doc != nil {
		return sw.doc.Name
	}
	return sw.workloadName
}

// NumPoints is the size of the expanded grid.
func (sw *Sweep) NumPoints() int {
	n := 1
	for _, ax := range sw.axes {
		n *= len(ax.labels)
	}
	return n
}

// workload constructs a fresh workload instance for one point.
func (sw *Sweep) workload() (workloads.Workload, error) {
	if sw.doc != nil {
		return sw.doc.Compile(), nil
	}
	return workloads.New(sw.workloadName)
}

// SweepSetting is one applied grid coordinate.
type SweepSetting struct {
	Param string `yaml:"param"`
	Value string `yaml:"value"`
}

// SweepPoint is one evaluated grid point.
type SweepPoint struct {
	Index   int            `yaml:"index"`
	Config  []SweepSetting `yaml:"config"`
	Runtime time.Duration  `yaml:"runtime"`
	IOTime  time.Duration  `yaml:"io_time"`
}

// SweepWinner is the selected configuration with speedups vs the
// baseline (point 0, the first value of every axis).
type SweepWinner struct {
	Index          int            `yaml:"index"`
	Config         []SweepSetting `yaml:"config"`
	Runtime        time.Duration  `yaml:"runtime"`
	IOTime         time.Duration  `yaml:"io_time"`
	IOSpeedup      string         `yaml:"io_speedup"`
	RuntimeSpeedup string         `yaml:"runtime_speedup"`
}

// SweepRecommendation is an advisor verdict on the baseline run.
type SweepRecommendation struct {
	ID        string `yaml:"id"`
	Parameter string `yaml:"parameter"`
	Value     string `yaml:"value"`
	Rationale string `yaml:"rationale"`
}

// SweepTrial is one replayed storage candidate on the baseline trace.
type SweepTrial struct {
	Name    string        `yaml:"name"`
	Runtime time.Duration `yaml:"runtime"`
	IOTime  time.Duration `yaml:"io_time"`
}

// SweepReport is the sweep's comparative artifact.
type SweepReport struct {
	Name            string                `yaml:"name"`
	Workload        string                `yaml:"workload"`
	Nodes           int                   `yaml:"nodes"`
	RanksPerNode    int                   `yaml:"ranks_per_node"`
	Scale           float64               `yaml:"scale"`
	Seed            int64                 `yaml:"seed"`
	Points          []SweepPoint          `yaml:"points"`
	Winner          SweepWinner           `yaml:"winner"`
	Recommendations []SweepRecommendation `yaml:"recommendations"`
	StripeTrials    []SweepTrial          `yaml:"stripe_trials"`
}

// SweepOptions configures a sweep execution. The zero value matches the
// vanid service's defaults, so CLI and service reports are byte-identical.
type SweepOptions struct {
	// Storage overrides every point's storage configuration (nil keeps
	// the workload default).
	Storage *storage.Config
	// Parallelism bounds concurrent points (0 = min(NumCPU, 4)). The
	// report does not depend on it.
	Parallelism int
	// OnPoint, when set, is called after each point completes.
	OnPoint func(done, total int)
}

// Run expands the grid, simulates every point, and reduces the outcomes
// into the comparative report. Point 0 — the first value of every axis —
// is the baseline speedups are measured against.
func (sw *Sweep) Run(opt SweepOptions) (*SweepReport, error) {
	total := sw.NumPoints()
	points := make([][]int, total)
	for i := range points {
		points[i] = sw.coords(i)
	}
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
		if par > 4 {
			par = 4
		}
	}
	if par > total {
		par = total
	}

	type outcome struct {
		res  *workloads.Result
		char *core.Characterization
		err  error
	}
	outs := make([]outcome, total)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	sem := make(chan struct{}, par)
	for i := range points {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			res, char, err := sw.runPoint(points[i], opt.Storage)
			outs[i] = outcome{res: res, char: char, err: err}
			if opt.OnPoint != nil {
				mu.Lock()
				done++
				opt.OnPoint(done, total)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("sweep %s: point %d: %w", sw.Name, i, o.err)
		}
	}

	rep := &SweepReport{
		Name:     sw.Name,
		Workload: sw.WorkloadName(),
		Seed:     sw.Base.Seed,
	}
	rep.Nodes = outs[0].res.Spec.Nodes
	rep.RanksPerNode = outs[0].res.Spec.RanksPerNode
	rep.Scale = outs[0].res.Spec.Scale
	winner := 0
	for i, o := range outs {
		rep.Points = append(rep.Points, SweepPoint{
			Index:   i,
			Config:  sw.settings(points[i]),
			Runtime: o.res.Runtime,
			IOTime:  o.char.Workflow.IOTime,
		})
		if o.char.Workflow.IOTime < outs[winner].char.Workflow.IOTime {
			winner = i
		}
	}
	base := rep.Points[0]
	win := rep.Points[winner]
	rep.Winner = SweepWinner{
		Index:          winner,
		Config:         win.Config,
		Runtime:        win.Runtime,
		IOTime:         win.IOTime,
		IOSpeedup:      speedup(base.IOTime, win.IOTime),
		RuntimeSpeedup: speedup(base.Runtime, win.Runtime),
	}
	for _, r := range advisor.Advise(outs[0].char) {
		rep.Recommendations = append(rep.Recommendations, SweepRecommendation{
			ID: r.ID, Parameter: r.Parameter, Value: r.Value, Rationale: r.Rationale,
		})
	}
	baseCfg := outs[0].res.Spec.Storage
	ropt := replay.DefaultOptions()
	ropt.Storage = baseCfg
	ropt.Seed = sw.Base.Seed
	trials, err := replay.Tune(outs[0].res.Trace,
		replay.StripeSweep(baseCfg, storage.MiB, 4*storage.MiB, 16*storage.MiB), ropt)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: stripe trials: %w", sw.Name, err)
	}
	for _, t := range trials {
		rep.StripeTrials = append(rep.StripeTrials, SweepTrial{
			Name: t.Candidate.Name, Runtime: t.Runtime, IOTime: t.IOTime,
		})
	}
	return rep, nil
}

// coords decodes a point index into per-axis value indexes, first axis
// slowest.
func (sw *Sweep) coords(index int) []int {
	c := make([]int, len(sw.axes))
	for i := len(sw.axes) - 1; i >= 0; i-- {
		n := len(sw.axes[i].labels)
		c[i] = index % n
		index /= n
	}
	return c
}

// settings renders a coordinate vector as applied parameter settings.
func (sw *Sweep) settings(coord []int) []SweepSetting {
	out := make([]SweepSetting, len(sw.axes))
	for i, ax := range sw.axes {
		out[i] = SweepSetting{Param: ax.param, Value: ax.labels[coord[i]]}
	}
	return out
}

// runPoint simulates one grid point and characterizes its trace.
func (sw *Sweep) runPoint(coord []int, storageOverride *storage.Config) (*workloads.Result, *core.Characterization, error) {
	w, err := sw.workload()
	if err != nil {
		return nil, nil, err
	}
	sp := w.DefaultSpec()
	if sw.Base.Nodes > 0 {
		sp.Nodes = sw.Base.Nodes
	}
	if sw.Base.RanksPerNode > 0 {
		sp.RanksPerNode = sw.Base.RanksPerNode
	}
	if sw.Base.Scale > 0 {
		sp.Scale = sw.Base.Scale
	}
	if sw.Base.Seed != 0 {
		sp.Seed = sw.Base.Seed
	}
	if storageOverride != nil {
		sp.Storage = *storageOverride
	}
	for i, ax := range sw.axes {
		j := coord[i]
		switch ax.param {
		case "staging":
			sp.Optimized = ax.labels[j] == "node-local"
		case "stripe_size":
			sp.Storage.PFSStripeSize = ax.sizes[j]
		case "stdio_buffer":
			sp.Iface.StdioBufSize = ax.sizes[j]
		case "readahead":
			sp.Storage.ReadAhead = ax.sizes[j]
		case "hdf5_chunked":
			sp.Iface.HDF5Chunked = ax.bools[j]
		case "relaxed_consistency":
			sp.Storage.RelaxedConsistency = ax.bools[j]
		case "write_compression":
			sp.Iface.CompressionEnabled = ax.bools[j]
		case "cache":
			sp.Storage.CacheEnabled = ax.bools[j]
		}
	}
	res, err := workloads.Run(w, sp)
	if err != nil {
		return nil, nil, err
	}
	aopt := core.DefaultOptions()
	cfg := res.Spec.Storage
	aopt.Storage = &cfg
	c, err := core.AnalyzeContext(context.Background(), res.Trace, aopt)
	return res, c, err
}

// speedup formats a before/after ratio the way the report pins it.
func speedup(before, after time.Duration) string {
	if after <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(before)/float64(after))
}
