// Package par provides the two parallel primitives the flow uses: For, a
// bounded worker pool over the indices of a range, and Do, a fork-join over
// a few independent functions.
//
// Determinism contract: bodies write disjoint output slots and read only
// shared state nobody writes while they run, so the result is bit-identical
// for every worker count, including 1. The worker count only decides how
// many goroutines pull indices off a shared counter. Floating-point
// reductions never cross a par call: each kernel that sums runs serially in
// one fixed order (the placer's CG solves each axis on one goroutine).
//
// Both entry points take the same `workers` knob: <= 0 means GOMAXPROCS,
// 1 means run inline on the calling goroutine (no goroutines are spawned),
// and anything larger bounds the pool. Panics inside bodies are captured and
// re-raised on the calling goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob to a concrete worker count: any value
// <= 0 selects runtime.GOMAXPROCS(0); positive values are returned as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For calls fn(i) for every i in [0, n), spread over at most `workers`
// goroutines that each take the next unclaimed index (one index per
// dispatch, right for coarse bodies). With one worker (or n <= 1)
// everything runs inline on the caller in index order. Bodies must write
// disjoint state; under that contract the result is identical for every
// worker count. The first panic recovered is re-raised on the caller after
// every worker has stopped.
func For(workers, n int, fn func(i int)) {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicky any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicky == nil {
						panicky = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicky != nil {
		panic(panicky)
	}
}

// Do runs the given functions, concurrently when workers > 1 (one goroutine
// per function; the functions are assumed independent). With workers <= 1
// they run sequentially in argument order. The first panic (lowest argument
// index) is re-raised on the caller.
func Do(workers int, fns ...func()) {
	if Workers(workers) <= 1 || len(fns) <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	panics := make([]any, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
			}()
			fn()
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
