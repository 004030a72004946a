package step

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestForkJoinCoversAll: a loop calls every index exactly once, at both
// grains the engines use, for any worker count and loop size, one ForkJoin
// runs loop after loop, and a nil ForkJoin or a default-sized one does the
// same.
func TestForkJoinCoversAll(t *testing.T) {
	base := obs.LeakSnapshot()
	check := func(fj *ForkJoin, label string) {
		t.Helper()
		for _, grain := range []int{1, Grain} {
			for _, n := range []int{0, 1, 7, 8, 9, 100, 1000} {
				hits := make([]int32, n)
				fj.Run(n, grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%s grain=%d n=%d: index %d hit %d times", label, grain, n, i, h)
					}
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 5, 16} {
		fj := NewForkJoin(workers)
		check(fj, "workers="+strconv.Itoa(workers))
		fj.Close()
	}
	fj := NewForkJoin(0)
	if fj.workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewForkJoin(0) has %d workers, want GOMAXPROCS %d", fj.workers, runtime.GOMAXPROCS(0))
	}
	check(fj, "workers=0")
	fj.Close()
	check(nil, "nil")
	obs.AssertNoLeaks(t, base)
}

// TestForkJoinDoesNotAllocate: once a ForkJoin has started its helpers, a
// loop — the wake-up, the cursor, the join — allocates nothing, at either
// grain.
func TestForkJoinDoesNotAllocate(t *testing.T) {
	fj := NewForkJoin(2)
	defer fj.Close()
	var hits [64]int32
	body := func(i int) { atomic.AddInt32(&hits[i], 1) }
	fj.Run(len(hits), Grain, body) // starts the helper
	for _, grain := range []int{1, Grain} {
		if allocs := testing.AllocsPerRun(200, func() { fj.Run(len(hits), grain, body) }); allocs != 0 {
			t.Errorf("grain %d: a loop allocates %v times, want 0", grain, allocs)
		}
	}
	for i, h := range hits {
		if want := int32(1 + 2*201); h != want {
			t.Fatalf("index %d hit %d times, want %d", i, h, want)
		}
	}
}

// onHelper reports whether the calling goroutine is one of a ForkJoin's
// helpers rather than the goroutine that called Run.
func onHelper() bool {
	buf := make([]byte, 8<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*ForkJoin).help("))
}

// TestForkJoinPanicJoins: a panic on the caller's share and a panic on a
// helper's share each reach the caller as a loopPanic carrying the value
// and the stack, only after every other participant has finished its
// share, and the next loop on the same ForkJoin still covers every index.
func TestForkJoinPanicJoins(t *testing.T) {
	for _, onCaller := range []bool{true, false} {
		fj := NewForkJoin(2)
		// Two indices at grain 1 on two participants, and whoever claims
		// index 0 waits for index 1 to be claimed: each participant runs
		// exactly one. The one picked panics; the other is still working
		// when it does, and counts itself done only after many yields.
		var claimed1, raised = make(chan struct{}), make(chan struct{})
		var finished atomic.Int32
		body := func(i int) {
			if i == 0 {
				<-claimed1
			} else {
				close(claimed1)
			}
			if onHelper() != onCaller {
				close(raised)
				panic("boom")
			}
			<-raised
			for k := 0; k < 1000; k++ {
				runtime.Gosched()
			}
			finished.Add(1)
		}
		caught := func() (r any) {
			defer func() { r = recover() }()
			fj.Run(2, 1, body)
			return nil
		}()
		lp, ok := caught.(loopPanic)
		if !ok {
			t.Fatalf("onCaller=%v: recovered %T (%v), want loopPanic", onCaller, caught, caught)
		}
		if lp.value != "boom" || len(lp.stack) == 0 {
			t.Fatalf("onCaller=%v: loopPanic value %v with %d stack bytes, want boom and a stack", onCaller, lp.value, len(lp.stack))
		}
		if got := finished.Load(); got != 1 {
			t.Fatalf("onCaller=%v: re-thrown with %d of 1 other participants finished", onCaller, got)
		}
		hits := make([]int32, 1000)
		for _, grain := range []int{1, Grain} {
			fj.Run(len(hits), grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
		}
		for i, h := range hits {
			if h != 2 {
				t.Fatalf("onCaller=%v: after the panic, index %d hit %d times, want 2", onCaller, i, h)
			}
		}
		fj.Close()
	}
}

// TestForkJoinInlinePanicRaw: a loop that runs inline (one worker, a nil
// ForkJoin, or no more than one grain of indices) re-throws the raw value.
func TestForkJoinInlinePanicRaw(t *testing.T) {
	wide := NewForkJoin(4)
	defer wide.Close()
	for _, c := range []struct {
		label string
		fj    *ForkJoin
		n     int
	}{{"one worker", NewForkJoin(1), 100}, {"nil", nil, 100}, {"one grain", wide, Grain}} {
		caught := func() (r any) {
			defer func() { r = recover() }()
			c.fj.Run(c.n, Grain, func(int) { panic("inline boom") })
			return nil
		}()
		if caught != "inline boom" {
			t.Fatalf("%s: recovered %#v, want the raw value", c.label, caught)
		}
	}
}

// TestForkJoinCloseIdempotent: Close twice, Close on a ForkJoin that never
// split a loop and Close on nil are safe, and Close stops the helpers.
func TestForkJoinCloseIdempotent(t *testing.T) {
	base := obs.LeakSnapshot()
	fj := NewForkJoin(3)
	fj.Run(64, 1, func(int) {})
	fj.Close()
	fj.Close()
	NewForkJoin(3).Close()
	var nilFJ *ForkJoin
	nilFJ.Close()
	obs.AssertNoLeaks(t, base)
}
