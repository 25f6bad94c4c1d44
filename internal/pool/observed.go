package pool

import (
	"time"

	"bf4/internal/obs"
)

// ObservedForEach is ForEach with worker-utilization metrics: per scope it
// maintains
//
//	bf4_pool_<scope>_tasks_total    tasks completed
//	bf4_pool_<scope>_busy_ns_total  summed wall time inside fn
//	bf4_pool_<scope>_workers        goroutines granted to the last call
//
// busy_ns against (workers × elapsed) is the pool's utilization; a large
// gap means the task list was too short or too skewed for the fan-out.
// A nil registry delegates to the plain ForEach — zero overhead, same
// scheduling, identical results either way.
func ObservedForEach(reg *obs.Registry, scope string, workers, n int, fn func(w, i int)) {
	if reg == nil {
		ForEach(workers, n, fn)
		return
	}
	tasks := reg.Counter("bf4_pool_" + scope + "_tasks_total")
	busy := reg.Counter("bf4_pool_" + scope + "_busy_ns_total")
	w := Workers(workers)
	if w > n && n > 0 {
		w = n
	}
	reg.Gauge("bf4_pool_" + scope + "_workers").Set(int64(w))
	ForEach(workers, n, func(w, i int) {
		start := time.Now()
		fn(w, i)
		busy.Add(int64(time.Since(start)))
		tasks.Inc()
	})
}

// ObservedMap is Map with the same metrics as ObservedForEach. The result
// slice is identical to Map's for every worker count and for nil reg.
func ObservedMap[T any](reg *obs.Registry, scope string, workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ObservedForEach(reg, scope, workers, n, func(_, i int) { out[i] = fn(i) })
	return out
}
