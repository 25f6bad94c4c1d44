// Package obs is bf4's unified observability layer: a low-overhead,
// concurrency-safe metrics registry (atomic counters, gauges and
// fixed-bucket histograms) plus hierarchical span tracing (span.go),
// exposed as Prometheus text format and stable JSON (expose.go) and over
// HTTP together with net/http/pprof (http.go).
//
// The layer is strictly passive: it observes the verification pipeline
// and the runtime shim without influencing them, so every verdict,
// annotation and fingerprint is byte-identical with observability on or
// off — CI asserts exactly that.
//
// Disabled observability is the nil value. Every method on a nil
// *Registry, *Counter, *Gauge, *Histogram or *Span is a no-op, so call
// sites instrument unconditionally:
//
//	var reg *obs.Registry // nil: disabled
//	c := reg.Counter("bf4_solver_checks_total")
//	c.Inc() // no-op, no allocation, one nil check
//
// Hot paths retain the metric handle once and pay a single predictable
// branch per event when disabled, and one atomic add when enabled.
package obs

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is NOT ready to use;
// create with NewRegistry. A nil *Registry is the disabled layer: all
// lookups return nil metrics whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	slowest  []CheckRecord // descending by Ns, at most slowestChecksKept
}

// CheckRecord is one solver check as the slowest-checks table lists it:
// who issued it, how big the CNF was when it ran, and what it cost.
type CheckRecord struct {
	// Phase is the pipeline phase that issued the check (findbugs,
	// recheck, inferbase, infer, ...), Solver the issuing solver's name
	// within it (a shard, an Infer instance's dual or direct solver).
	Phase  string `json:"phase"`
	Solver string `json:"solver"`
	// Node is the IR id of the bug node the check decides, -1 when the
	// check is not about one node.
	Node int `json:"node"`
	// First marks a cold start: no check had run on the issuing solver, or
	// on the one it was copied from, since it was made or reset.
	First        bool  `json:"first"`
	CNFVars      int   `json:"cnf_vars"`
	CNFClauses   int   `json:"cnf_clauses"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	// Cancelled is the number of literals the check's backtracking
	// unassigned: what search then has to decide or propagate again.
	Cancelled int64 `json:"cancelled"`
	// Ns is the check's blast plus search time.
	Ns int64 `json:"ns"`
}

// slowestChecksKept is the length of the slowest-checks table.
const slowestChecksKept = 10

// RecordCheck offers one check to the slowest-checks table, which keeps
// the slowestChecksKept largest by Ns (no-op on nil).
func (r *Registry) RecordCheck(c CheckRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.slowest), func(i int) bool { return r.slowest[i].Ns < c.Ns })
	if i == slowestChecksKept {
		return
	}
	r.slowest = slices.Insert(r.slowest, i, c)
	r.slowest = r.slowest[:min(len(r.slowest), slowestChecksKept)]
}

// SlowestChecks returns the table, slowest first (nil on nil).
func (r *Registry) SlowestChecks() []CheckRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.slowest)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (registering on first use) the counter with the given
// name. Nil receiver: returns nil, whose methods are no-ops. Names should
// follow Prometheus conventions (snake_case, counters end in _total).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the histogram with the
// given name and fixed bucket upper bounds (ascending; an implicit +Inf
// bucket is appended). Bounds are fixed at first registration: a second
// call with different bounds returns the existing histogram unchanged, so
// exposition stays stable for the registry's lifetime.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterValue reads a counter by name; 0 when absent or r is nil.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// GaugeValue reads a gauge by name; 0 when absent or r is nil.
func (r *Registry) GaugeValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g := r.gauges[name]
	r.mu.Unlock()
	return g.Value()
}

// names returns the sorted metric names of each kind (for exposition).
func (r *Registry) names() (counters, gauges, hists []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := range r.counters {
		counters = append(counters, n)
	}
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	for n := range r.hists {
		hists = append(hists, n)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

// Counter is a monotonically increasing counter. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down. Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores n (no-op on nil).
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (no-op on nil).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket boundaries are
// upper bounds (le) in ascending order plus an implicit +Inf bucket.
// Observation is lock-free: one atomic add into the bucket, one into the
// sum, one into the count.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64
	count  atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot returns the bucket bounds and per-bucket (non-cumulative)
// counts, the +Inf bucket last.
func (h *Histogram) snapshot() (bounds []int64, counts []int64) {
	bounds = h.bounds
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return
}

// DurationBuckets are the standard bucket upper bounds (nanoseconds) for
// latency histograms: 1µs to 10s in decades. Fixed boundaries keep the
// exposition golden-testable and dashboards comparable across runs.
var DurationBuckets = []int64{
	1_000,          // 1µs
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// CountBuckets are the standard bucket upper bounds for event-count
// histograms (e.g. conflicts per solver check): decades from 1 to 1e6.
var CountBuckets = []int64{1, 10, 100, 1_000, 10_000, 100_000, 1_000_000}
