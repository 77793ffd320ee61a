// Package parallel provides the bounded worker pool the chunked analysis
// pipeline fans out on.
//
// The paper's Analyzer converts traces to a columnar store precisely so the
// heavy filter/aggregate scans can run partitioned and in parallel (parquet
// + DASK). Every parallel scan in this repository goes through ForEach: the
// caller splits work into indexed units (column chunks, trace shards),
// workers fill per-index result slots, and the caller reduces the slots in
// index order. Keeping the reduction on the caller's side is what makes the
// parallel paths bit-identical to the sequential ones.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Degree resolves a requested parallelism: values <= 0 mean GOMAXPROCS.
func Degree(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// ForEach invokes fn(i) for every i in [0, n), running at most workers
// invocations concurrently. workers <= 0 means GOMAXPROCS; a resolved
// degree of 1 (or n <= 1) runs inline on the calling goroutine with no
// synchronization overhead, so sequential configurations pay nothing.
//
// fn must write its result into a per-index slot; ForEach makes no ordering
// guarantee between concurrent invocations. A panic in any invocation is
// re-raised on the calling goroutine after all workers have drained.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// Workers returns how many workers ForEach and ForEachWorker run for n
// items at the requested parallelism: Degree(workers), capped at n.
func Workers(workers, n int) int {
	return max(min(Degree(workers), n), 0)
}

// ForEachWorker is ForEach that also passes fn the index w, in
// [0, Workers(workers, n)), of the worker running it. No two concurrent
// invocations share a w, so callers can keep one accumulator per worker
// instead of one per item — valid whenever the accumulators merge
// order-independently (integer sums, min/max, set unions).
func ForEachWorker(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicky any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicky == nil {
						panicky = r
					}
					panicMu.Unlock()
					// Drain remaining work so sibling workers exit promptly.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	if panicky != nil {
		panic(fmt.Sprintf("parallel: worker panic: %v", panicky))
	}
}
