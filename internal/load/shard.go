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

// parallelFor runs fn(i) for every i in [0, n), sharded across up to
// `workers` participants (the caller claims chunks too), and returns when
// every index has completed. workers <= 1 — or a job too small to split —
// runs inline. Unlike the server's persistent slot pool, goroutines are
// spawned per call: a sim build phase covers the whole active set, so the
// spawn cost is noise, and the engine stays goroutine-free at rest.
func parallelFor(n, workers int, fn func(int)) {
	parts := (n + simShard - 1) / simShard
	if parts > workers {
		parts = workers
	}
	if workers <= 1 || parts <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	work := func() {
		for {
			lo := int(cursor.Add(simShard)) - simShard
			if lo >= n {
				return
			}
			hi := lo + simShard
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for i := 1; i < parts; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// forEachShard runs fn(i) for every i in [0, n) with one index as the unit of
// work, on up to `workers` participants (the caller is one), and returns when
// every index has completed. It is parallelFor for a handful of heavy items:
// parallelFor's chunks of simShard indices would run a four-shard fleet
// inline. workers <= 1 runs inline in index order and takes no goroutine.
func forEachShard(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	work := func() {
		for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
