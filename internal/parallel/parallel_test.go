package parallel

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		hits := make([]int32, n)
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(4, 0, func(i int) { called = true })
	ForEach(4, -3, func(i int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

func TestForEachInlineWhenSequential(t *testing.T) {
	// workers=1 must run on the calling goroutine, in order.
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline path out of order: %v", order)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak int32
	ForEach(workers, 100, func(i int) {
		a := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if a <= p || atomic.CompareAndSwapInt32(&peak, p, a) {
				break
			}
		}
		atomic.AddInt32(&active, -1)
	})
	if peak > workers {
		t.Errorf("observed %d concurrent invocations, bound is %d", peak, workers)
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Errorf("panic value = %v", r)
		}
	}()
	ForEach(4, 100, func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
}

func TestDegree(t *testing.T) {
	if Degree(3) != 3 {
		t.Error("explicit degree not honored")
	}
	if Degree(0) < 1 || Degree(-1) < 1 {
		t.Error("default degree not positive")
	}
}

// TestForEachWorkerIndexesAreExclusive: every worker index lies in
// [0, Workers(workers, n)) and no two concurrent invocations share one, so
// a per-worker accumulator written without locks sees no race.
func TestForEachWorkerIndexesAreExclusive(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		n := 200
		nw := Workers(workers, n)
		if nw != min(workers, n) {
			t.Fatalf("Workers(%d, %d) = %d", workers, n, nw)
		}
		busy := make([]atomic.Int32, nw)
		sums := make([]int, nw)
		ForEachWorker(workers, n, func(w, i int) {
			if w < 0 || w >= nw {
				t.Errorf("worker index %d outside [0, %d)", w, nw)
				return
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("worker index %d used by two invocations at once", w)
			}
			sums[w] += i
			busy[w].Add(-1)
		})
		total := 0
		for _, s := range sums {
			total += s
		}
		if total != n*(n-1)/2 {
			t.Errorf("workers=%d: per-worker sums total %d, want %d", workers, total, n*(n-1)/2)
		}
	}
	if Workers(4, 0) != 0 || Workers(4, 3) != 3 {
		t.Errorf("Workers(4, 0) = %d, Workers(4, 3) = %d", Workers(4, 0), Workers(4, 3))
	}
}
