package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSingleProcSleep(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	end := e.Run()
	if woke != 5*time.Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Errorf("Run returned %v, want 5s", end)
	}
}

func TestSleepNegativeTreatedAsZero(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("time advanced to %v after negative sleep", p.Now())
		}
	})
	e.Run()
}

func TestSleepUntilPastClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.SleepUntil(time.Second) // in the past
		if p.Now() != 3*time.Second {
			t.Errorf("Now = %v, want 3s", p.Now())
		}
	})
	e.Run()
}

func TestMultipleProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		e.Spawn("a", func(p *Proc) {
			p.Sleep(2 * time.Second)
			order = append(order, "a2")
			p.Sleep(2 * time.Second)
			order = append(order, "a4")
		})
		e.Spawn("b", func(p *Proc) {
			p.Sleep(1 * time.Second)
			order = append(order, "b1")
			p.Sleep(2 * time.Second)
			order = append(order, "b3")
		})
		e.Run()
		return order
	}
	want := []string{"b1", "a2", "b3", "a4"}
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal timestamps)", i, v, i)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var started time.Duration
	e.SpawnAt(7*time.Second, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 7*time.Second {
		t.Errorf("started at %v, want 7s", started)
	}
}

func TestNestedSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childEnd time.Duration
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.e.Spawn("child", func(c *Proc) {
			c.Sleep(2 * time.Second)
			childEnd = c.Now()
		})
		p.Sleep(5 * time.Second)
	})
	end := e.Run()
	if childEnd != 3*time.Second {
		t.Errorf("child finished at %v, want 3s", childEnd)
	}
	if end != 6*time.Second {
		t.Errorf("sim ended at %v, want 6s", end)
	}
}

func TestAfterCallback(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.After(4*time.Second, func() { at = e.Now() })
	e.Run()
	if at != 4*time.Second {
		t.Errorf("callback at %v, want 4s", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	e.RunUntil(10 * time.Second)
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
	// Resume to completion.
	e.Run()
	if ticks != 100 {
		t.Errorf("after Run, ticks = %d, want 100", ticks)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(9 * time.Second)
	if e.Now() != 9*time.Second {
		t.Errorf("Now = %v, want 9s even with no events", e.Now())
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on deadlock")
		}
	}()
	e := NewEngine()
	g := NewGate(e)
	e.Spawn("stuck", func(p *Proc) { g.Wait(p) })
	e.Run()
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduling into the past")
		}
	}()
	e := NewEngine()
	e.At(time.Second, func() {
		e.At(0, func() {}) // now = 1s; scheduling at 0 is the past
	})
	e.Run()
}

func TestSleptAccounting(t *testing.T) {
	e := NewEngine()
	var slept time.Duration
	e.Spawn("p", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.Sleep(4 * time.Second)
		slept = p.Slept
	})
	e.Run()
	if slept != 7*time.Second {
		t.Errorf("Slept = %v, want 7s", slept)
	}
}

func TestProcIDsSequential(t *testing.T) {
	e := NewEngine()
	var ids []int
	for i := 0; i < 5; i++ {
		p := e.Spawn("p", func(p *Proc) {})
		ids = append(ids, p.ID())
	}
	e.Run()
	for i, id := range ids {
		if id != i {
			t.Errorf("ids[%d] = %d, want %d", i, id, i)
		}
	}
}

func TestEventsExecutedCounter(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, func() {})
	e.At(2*time.Second, func() {})
	e.Run()
	if e.EventsExecuted != 2 {
		t.Errorf("EventsExecuted = %d, want 2", e.EventsExecuted)
	}
}

func TestManyProcsScale(t *testing.T) {
	e := NewEngine()
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(time.Duration(i%17) * time.Millisecond)
			done++
		})
	}
	e.Run()
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d, want 0", e.Live())
	}
}

func TestYieldOrdersSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a-first")
		p.Yield()
		order = append(order, "a-second")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b-first")
	})
	e.Run()
	want := []string{"a-first", "b-first", "a-second"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFailRecordsFirstError(t *testing.T) {
	e := NewEngine()
	errA := errors.New("first failure")
	errB := errors.New("second failure")
	e.Spawn("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Fail(errA)
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		e.Fail(errB)
	})
	e.Run()
	if e.Err() != errA {
		t.Errorf("Err = %v, want the first recorded error", e.Err())
	}
	e.Fail(nil)
	if e.Err() != errA {
		t.Error("Fail(nil) overwrote the recorded error")
	}
}

func TestErrNilWithoutFailures(t *testing.T) {
	e := NewEngine()
	e.Spawn("ok", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.Run()
	if e.Err() != nil {
		t.Errorf("Err = %v, want nil", e.Err())
	}
}

// TestFailedRunUnwindsParkedProcesses: when a recorded failure leaves
// processes parked for good (here at a gate the failed process would have
// opened), Run returns instead of panicking on the deadlock, and every
// parked process unwinds — its deferred calls run and its goroutine exits.
func TestFailedRunUnwindsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	g := NewGate(e)
	errRank := errors.New("rank 0 failed")
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			defer func() { unwound++ }()
			g.Wait(p)
			t.Error("waiter passed a gate nobody opened")
		})
	}
	e.Spawn("failer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Fail(errRank)
	})
	e.Run()
	if e.Err() != errRank {
		t.Errorf("Err = %v, want %v", e.Err(), errRank)
	}
	if e.Live() != 0 || unwound != 3 {
		t.Errorf("live = %d, unwound = %d after the failed run; want 0 and 3", e.Live(), unwound)
	}
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed run, %d before", n, before)
	}
}
