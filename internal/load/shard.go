package load

import (
	"sync"
	"sync/atomic"
)

// simShard is the index-chunk size build workers claim per cursor bump —
// the same sharding granularity the server's slot pool and the batch
// solver use: big enough to amortize the atomic, small enough that a few
// expensive sessions do not serialize the phase behind one goroutine.
const simShard = 8

// forkJoin runs one engine run's parallel loops. Its helper goroutines start
// at the run's first loop that splits and park between loops; stop ends
// them and waits for them, so the engine is goroutine-free at rest. A loop
// allocates nothing: the cursor and the WaitGroup are the forkJoin's own,
// and the loop bodies are closures a run makes once, over variables the
// slot loop updates.
type forkJoin struct {
	workers int           // participants, the caller included
	wake    chan struct{} // one token per helper a loop wants
	wg      sync.WaitGroup
	helpers sync.WaitGroup // the running helpers, for stop
	cursor  atomic.Int64

	// The loop under way, set before its helpers are woken.
	n, grain int
	fn       func(int)
}

// newForkJoin returns a forkJoin of up to workers participants (at least
// one, the caller).
func newForkJoin(workers int) *forkJoin {
	return &forkJoin{workers: max(workers, 1)}
}

// run calls fn(i) for every i in [0, n), grain consecutive indices per
// claim, on up to workers participants (the caller is one), and returns
// when every index has completed. A loop that one participant covers — one
// worker, or no more than grain indices — runs inline in index order.
func (f *forkJoin) run(n, grain int, fn func(int)) {
	parts := min(f.workers, (n+grain-1)/grain)
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
}

// help is a helper goroutine: one share of the current loop per token.
func (f *forkJoin) help() {
	defer f.helpers.Done()
	for range f.wake {
		f.work()
		f.wg.Done()
	}
}

// work claims grain indices at a time until the loop is exhausted.
func (f *forkJoin) work() {
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

// stop ends the helpers and returns once they have exited. The forkJoin
// must not run again.
func (f *forkJoin) stop() {
	if f.wake != nil {
		close(f.wake)
		f.helpers.Wait()
	}
}

// arrivalIndex lists a workload's sessions by arrival slot: a stable
// counting sort, so within a slot they keep the workload's order (a
// replayed JSONL workload need not be sorted). Two allocations, whatever
// the horizon.
type arrivalIndex struct {
	specs []SessionSpec
	start []int32 // slot t's arrivals are specs[start[t]:start[t+1]]
}

// indexArrivals indexes the sessions arriving in [0, horizon); the rest
// never arrive.
func indexArrivals(sessions []SessionSpec, horizon int) arrivalIndex {
	start := make([]int32, horizon+1)
	arrives := func(s *SessionSpec) bool { return s.ArriveSlot >= 0 && s.ArriveSlot < horizon }
	for i := range sessions {
		if s := &sessions[i]; arrives(s) {
			start[s.ArriveSlot+1]++
		}
	}
	for t := 1; t <= horizon; t++ {
		start[t] += start[t-1]
	}
	// Place each session at its slot's cursor, which leaves start[t] at
	// slot t's end, that is slot t+1's start; shift back by one slot.
	specs := make([]SessionSpec, start[horizon])
	for i := range sessions {
		if s := &sessions[i]; arrives(s) {
			specs[start[s.ArriveSlot]] = *s
			start[s.ArriveSlot]++
		}
	}
	copy(start[1:], start[:horizon])
	start[0] = 0
	return arrivalIndex{specs: specs, start: start}
}

// at returns the sessions arriving at slot.
func (a *arrivalIndex) at(slot int) []SessionSpec {
	return a.specs[a.start[slot]:a.start[slot+1]]
}
