package step

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Grain is the index-chunk size the per-session loops claim per cursor
// bump: big enough to amortize the atomic, small enough that a few
// expensive sessions do not serialize a phase behind one participant.
const Grain = 8

// ForkJoin runs one owner's parallel loops: the server's slot phases, a
// virtual engine run's build-and-solve loops, sim.Run's runs. Its
// helper goroutines start at the first loop that splits and park between
// loops; Close ends them, so the owner is goroutine-free at rest. A loop
// allocates nothing: the cursor and the WaitGroup are the ForkJoin's own,
// and callers pass loop bodies they made once.
//
// Run is not reentrant and not safe for concurrent use: one goroutine owns
// a ForkJoin's loops. A nil *ForkJoin runs every loop inline.
type ForkJoin struct {
	workers int           // participants, the caller included
	wake    chan struct{} // one token per helper a loop wants
	wg      sync.WaitGroup
	helpers sync.WaitGroup // the running helpers, for Close
	closed  sync.Once
	cursor  atomic.Int64

	// The loop under way, set before its helpers are woken.
	n, grain int
	fn       func(int)

	mu    sync.Mutex
	fault *loopPanic // the loop's first panic
}

// loopPanic is a panic raised inside a split loop, re-thrown by Run once
// every participant has stopped. The stack is the participant's where the
// panic was raised: the re-panic site says nothing about the fault.
type loopPanic struct {
	value any
	stack []byte
}

func (p loopPanic) String() string {
	return fmt.Sprintf("%v (from a fork-join participant)\n%s", p.value, p.stack)
}

// NewForkJoin returns a ForkJoin of up to workers participants, the caller
// included; workers <= 0 means GOMAXPROCS.
func NewForkJoin(workers int) *ForkJoin {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ForkJoin{workers: workers}
}

// Run calls fn(i) for every i in [0, n), grain consecutive indices per
// claim, on up to workers participants, and returns when every index has
// completed. A loop that one participant covers (one worker, or no more
// than grain indices) runs inline in index order, and its panics pass
// through untouched. In a split loop every participant recovers: Run joins
// them all, then re-throws the first panic, wrapped with the stack it was
// raised on. The ForkJoin stays usable after a panic.
func (f *ForkJoin) Run(n, grain int, fn func(int)) {
	parts := 1
	if f != nil {
		parts = min(f.workers, (n+grain-1)/grain)
	}
	if parts <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if f.wake == nil {
		f.wake = make(chan struct{}, f.workers-1)
		f.helpers.Add(f.workers - 1)
		for w := 1; w < f.workers; w++ {
			go f.help()
		}
	}
	f.n, f.grain, f.fn = n, grain, fn
	f.cursor.Store(0)
	f.wg.Add(parts - 1)
	for w := 1; w < parts; w++ {
		f.wake <- struct{}{}
	}
	f.work()
	f.wg.Wait()
	f.fn = nil
	if p := f.fault; p != nil {
		f.fault = nil
		panic(*p)
	}
}

// help is a helper goroutine: one share of the current loop per token.
func (f *ForkJoin) help() {
	defer f.helpers.Done()
	for range f.wake {
		f.work()
		f.wg.Done()
	}
}

// work claims grain indices at a time until the loop is exhausted. A panic
// ends this participant's share and is kept, the first one only, for Run.
func (f *ForkJoin) work() {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			f.mu.Lock()
			if f.fault == nil {
				f.fault = &loopPanic{value: v, stack: buf}
			}
			f.mu.Unlock()
		}
	}()
	for {
		lo := int(f.cursor.Add(int64(f.grain))) - f.grain
		if lo >= f.n {
			return
		}
		for i := lo; i < min(lo+f.grain, f.n); i++ {
			f.fn(i)
		}
	}
}

// Close ends the helpers and returns once they have exited. It is
// idempotent and safe on nil; the ForkJoin must not Run again.
func (f *ForkJoin) Close() {
	if f == nil {
		return
	}
	f.closed.Do(func() {
		if f.wake != nil {
			close(f.wake)
		}
	})
	f.helpers.Wait()
}
