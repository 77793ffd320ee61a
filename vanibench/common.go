package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is one benchmark run's configuration and shared state.
type env struct {
	root    string        // checkout root (sources, examples)
	vanid   string        // vanid binary built from the checkout
	work    string        // scratch directory for this run, removed at exit
	seed    int64         // workload seed: every input derives from it
	seconds time.Duration // length of the measured phase
	traced  bool          // run the traced pass and report per-layer metrics
	setups  int           // set-ups per run; setup_s is their median
	log     io.Writer     // human-readable progress

	// corrupt flips one byte of every correctness reference before it is
	// compared, so tests can prove each check fires.
	corrupt bool

	tr  *tracer
	cal *calibrator
}

func (e *env) logf(format string, args ...any) {
	if e.log != nil {
		fmt.Fprintf(e.log, format+"\n", args...)
	}
}

// ref returns a correctness reference, corrupted when the test hook asks.
func (e *env) ref(b []byte) []byte {
	if !e.corrupt || len(b) == 0 {
		return b
	}
	c := bytes.Clone(b)
	c[len(c)/2] ^= 0x20
	return c
}

// dir returns a fresh subdirectory of the run's scratch directory.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int64
	failed    int64
	e2e       map[string]float64
	layers    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records n failed operations with the reason.
func (o *outcome) fail(e *env, n int64, format string, args ...any) {
	o.failed += n
	e.logf("FAIL: "+format, args...)
}

// checks counts correctness comparisons per operation: an operation whose
// output differs from its reference counts as failed once.
type checks struct {
	checked int64
	failed  int64
}

func (c *checks) compare(e *env, what string, got, want []byte) {
	c.checked++
	if !bytes.Equal(got, want) {
		c.failed++
		e.logf("FAIL: %s: output differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
}

// repeatSetup runs setup n times, tearing down every set-up but the last,
// and returns the median calibrated set-up time in seconds. teardown must
// undo everything setup starts.
func repeatSetup(n int, setup func() error, teardown func()) (float64, error) {
	if n < 1 {
		n = 1
	}
	var ds []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		debug.FreeOSMemory()
		slow := slownessNow()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds()/slow)
	}
	return median(ds), nil
}

// ---- statistics ----

// quantile is the nearest-rank-interpolated quantile (Hyndman-Fan type 7)
// of xs, which need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// meanQuantile is the q-quantile of each input's samples, averaged over
// the inputs. The run's length and seed decide how often each input comes
// up, so a quantile over the pooled samples of unlike inputs would jump
// between them; averaging per-input quantiles does not.
func meanQuantile[K comparable](by map[K][]float64, q float64) float64 {
	if len(by) == 0 {
		return 0
	}
	var s float64
	for _, xs := range by {
		s += quantile(xs, q)
	}
	return s / float64(len(by))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, which the steadiness gate is defined by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ---- resident-set sampling ----

// rssSampler polls a process's resident set size during a measured phase,
// leaving out set-up peaks that a high-water mark would keep.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

const rssEvery = 20 * time.Millisecond

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/statm", pid)
	page := int64(os.Getpagesize())
	read := func() {
		b, err := os.ReadFile(path)
		if err != nil {
			return
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			return
		}
		if n, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			s.samples = append(s.samples, float64(n*page)/(1<<20))
		}
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		read()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the samples in MB.
func (s *rssSampler) Stop() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// vmHWM reads a process's resident high-water mark in MB.
func vmHWM(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// ---- closed loop ----

// closedLoop runs clients callers, each issuing its next operation only
// after the previous one returned, until d has elapsed; calibrations run
// between operations. op receives the client index and the operation's
// sequence number across all clients.
func closedLoop(cal *calibrator, clients int, d time.Duration, op func(client int, seq int64)) time.Duration {
	var (
		mu  sync.Mutex
		seq int64
		wg  sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				n := seq
				seq++
				mu.Unlock()
				cal.op(func() { op(c, n) })
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}
