// Package pool provides the bounded worker pool underlying bf4's
// parallel execution layers: per-table-instance annotation inference
// (internal/infer) and corpus-level experiment fan-out
// (internal/experiments). The core contract is deterministic ordered
// collection: Map runs tasks concurrently but returns results indexed by
// task, so callers that merge in index order produce byte-identical
// output regardless of the worker count or goroutine interleaving.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: n itself when n >= 1,
// otherwise GOMAXPROCS (the "use the whole machine" default).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(w, i) for every task i in [0, n) on at most
// Workers(workers) goroutines and waits for all of them. w, in
// [0, min(Workers(workers), n)), names the goroutine running the task: the
// tasks of one w run one after another, never at once, so fn may keep
// per-worker state indexed by w without a lock. Which tasks share a w
// depends on the schedule. A panic in any task is re-raised in the caller
// after the remaining workers drain.
func ForEach(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(g, i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs fn(0..n-1) concurrently and returns the results in index
// order. The result slice is identical for every worker count.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(_, i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible tasks. All tasks run to completion; if any
// failed, the error of the lowest-indexed failure is returned (a
// deterministic choice) together with the partial results.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(workers, n, func(_, i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
