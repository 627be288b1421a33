// Package par provides the deterministic parallel primitives the flow's
// compute kernels are built on: a bounded worker pool over fixed-size chunks
// of an index range, an ordered map-reduce, and a small fork-join helper.
//
// Determinism contract: chunk boundaries depend only on the problem size and
// the grain, never on the worker count, and MapReduce merges partial results
// in chunk order. A kernel whose chunk bodies write disjoint output slots (or
// whose partial results are merged through MapReduce) therefore produces
// bit-identical results for every worker count, including 1. The worker
// count only decides how many goroutines pull chunks off a shared counter.
//
// Every entry point takes the same `workers` knob: <= 0 means GOMAXPROCS,
// 1 means run inline on the calling goroutine (no goroutines are spawned),
// and anything larger bounds the pool. Panics inside chunk bodies are
// captured and re-raised on the calling goroutine.
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

// Chunks partitions [0, n) into fixed chunks of `grain` indices (the last
// chunk may be short) and calls fn(lo, hi) once per chunk, spread over at
// most `workers` goroutines. The partition depends only on n and grain, so
// kernels writing disjoint slots are deterministic for every worker count.
// With one worker (or a single chunk) everything runs inline on the caller.
func Chunks(workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	nChunks := (n + grain - 1) / grain
	workers = Workers(workers)
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		for c := 0; c < nChunks; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
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
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					break
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	if panicky != nil {
		panic(panicky)
	}
}

// For calls fn(i) for every i in [0, n), spread over at most `workers`
// goroutines (grain 1: one index per dispatch, right for coarse bodies).
// Bodies must write disjoint state; under that contract the result is
// identical for every worker count.
func For(workers, n int, fn func(i int)) {
	Chunks(workers, n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// MapReduce maps fixed chunks of [0, n) through mapFn and folds the partial
// results left-to-right in chunk order. Because both the chunk boundaries
// and the merge order are independent of the worker count, the result is
// bit-identical for every worker count — including non-associative merges
// such as floating-point addition. Returns the zero T when n <= 0.
func MapReduce[T any](workers, n, grain int, mapFn func(lo, hi int) T, reduce func(a, b T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	if grain <= 0 {
		grain = 1
	}
	nChunks := (n + grain - 1) / grain
	if nChunks == 1 {
		// Fast path: no partial-result slice, no closure escape. Same
		// reduction order as the general path (a single chunk).
		return mapFn(0, n)
	}
	parts := make([]T, nChunks)
	Chunks(workers, n, grain, func(lo, hi int) {
		parts[lo/grain] = mapFn(lo, hi)
	})
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = reduce(acc, p)
	}
	return acc
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
