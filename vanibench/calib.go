package main

import (
	"encoding/binary"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on changes speed by tens of percent from
// minute to minute as other tenants come and go, and the guest sees
// little of it as steal time. Every run therefore times a fixed pure-Go
// kernel between its operations and reports its times in calibrated
// units: a measured time divided by the run's slowness, which is the
// kernel's median time over calibNominalMS. The kernel exercises none of
// vani's code, so a change to vani moves the measured times and not the
// slowness. Runs log their slowness and uncalibrated figures.
const (
	// calibNominalMS is the kernel's time on the reference machine, the
	// 2-vCPU host the bounds were set on, in its quiet periods.
	calibNominalMS = 16.0
	// calibEvery is the least time between two calibrations in a
	// measured phase.
	calibEvery = 500 * time.Millisecond
	// calibUnits is the kernel's work per worker.
	calibUnits = 8
)

// calibData is the kernel's fixed input: xorshift words.
var calibData = func() []uint64 {
	x := uint64(88172645463325252)
	out := make([]uint64, 1<<17)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = x
	}
	return out
}()

// calibScratch is one kernel worker's memory, allocated once so that the
// kernel allocates nothing and the garbage collector, which the workload
// under test drives, does not change its speed.
type calibScratch struct {
	buf    []byte
	sorted []uint64
	counts map[uint64]int
}

var calibWorkers = func() (ws [2]*calibScratch) {
	for i := range ws {
		ws[i] = &calibScratch{
			buf:    make([]byte, binary.MaxVarintLen64<<16),
			sorted: make([]uint64, 1<<13),
			counts: make(map[uint64]int, 1<<16),
		}
	}
	return ws
}()

// calibUnit is one unit of kernel work, the kinds a trace analyzer does:
// varint encoding and decoding, a sort, and hash-map counting.
func calibUnit(w *calibScratch) uint64 {
	buf, s, m := w.buf, w.sorted, w.counts
	n := 0
	for _, v := range calibData[:1<<16] {
		n += binary.PutUvarint(buf[n:], v>>40)
	}
	var sum uint64
	for i := 0; i < n; {
		v, k := binary.Uvarint(buf[i:])
		sum += v
		i += k
	}
	copy(s, calibData[1<<16:])
	slices.Sort(s)
	clear(m)
	for _, v := range calibData[:1<<15] {
		m[v&0xffff]++
	}
	return sum + s[0] + uint64(len(m))
}

// calibKernel runs the kernel on both CPUs and returns its time in ms.
func calibKernel() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range calibWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < calibUnits; k++ {
				calibUnit(w)
			}
		}()
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// calibrator interleaves kernel runs with a measured phase's operations.
// Operations run under the gate's read lock and a calibration under its
// write lock, so the kernel never shares the CPUs with the workload.
type calibrator struct {
	gate    sync.RWMutex
	mu      sync.Mutex
	next    time.Time
	samples []float64     // kernel times, ms
	paused  time.Duration // time spent calibrating
}

// op runs fn as one operation, first calibrating if one is due.
func (c *calibrator) op(fn func()) {
	c.between()
	c.gate.RLock()
	defer c.gate.RUnlock()
	fn()
}

// between calibrates if calibEvery has passed since the last calibration,
// waiting for operations in flight to finish.
func (c *calibrator) between() {
	due := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return !time.Now().Before(c.next)
	}
	if !due() {
		return
	}
	c.gate.Lock()
	defer c.gate.Unlock()
	if !due() {
		return
	}
	t0 := time.Now()
	k := calibKernel()
	c.mu.Lock()
	c.samples = append(c.samples, k)
	c.paused += time.Since(t0)
	c.next = time.Now().Add(calibEvery)
	c.mu.Unlock()
}

// pausedFor is the time spent calibrating so far.
func (c *calibrator) pausedFor() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.paused
}

// phaseSlowness is the slowness over the calibrations so far.
func (c *calibrator) phaseSlowness() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / calibNominalMS
}

// slownessNow calibrates three times and returns the median slowness,
// for a single interval such as one set-up.
func slownessNow() float64 {
	ks := []float64{calibKernel(), calibKernel(), calibKernel()}
	return median(ks) / calibNominalMS
}
