// Package shim implements bf4's runtime rule sanitizer (paper §4.4): it
// sits between the controller and the dataplane, intercepting table
// updates and validating each against the assertions inferred at compile
// time. Validation follows the paper's three steps: (a) dispatch the
// update to the conditions clustered on its table (constant time), (b)
// rewrite each condition body with the update's concrete values, (c)
// resolve any variables still unbound (multi-table assertions) against
// shadow copies of the other tables' contents. Safe updates are inserted
// into the shadow state; unsafe updates raise an exception back to the
// controller — the dataplane never holds a buggy snapshot.
package shim

import (
	"fmt"
	"sync"
	"time"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// Update is one controller message.
type Update struct {
	Table string
	// Entry inserts a rule (nil when setting a default action).
	Entry *dataplane.Entry
	// SetDefault changes the table's default action.
	SetDefault *dataplane.DefaultAction
}

// RejectionError explains why an update was refused.
type RejectionError struct {
	Table     string
	Assertion *spec.Assertion
	Forbidden string
	Reason    string
}

func (e *RejectionError) Error() string {
	if e.Assertion != nil {
		return fmt.Sprintf("shim: update to table %s rejected: rule matches forbidden shape %s (inferred by %s)",
			e.Table, e.Forbidden, e.Assertion.Source)
	}
	return fmt.Sprintf("shim: update to table %s rejected: %s", e.Table, e.Reason)
}

// Stats aggregates validation outcomes and latencies (for §5.3).
// Latency streams are kept in bounded reservoirs (see LatencyStats) so a
// long-running shim holds constant memory regardless of update count.
type Stats struct {
	Validated int
	Rejected  int
	// FastpathHits counts assertion evaluations served by a compiled
	// bytecode program; SlowpathHits counts term-DAG evaluations (shadow
	// resolution, wide vectors, or SetFastpath(false)).
	FastpathHits int
	SlowpathHits int
	// PerAssertion summarizes single-assertion evaluation latency;
	// PerUpdate summarizes whole-update validation latency.
	PerAssertion LatencyStats
	PerUpdate    LatencyStats
}

// DefaultStatsCap is the default latency-reservoir capacity.
const DefaultStatsCap = 8192

// DefaultDedupWindow is the default size of the applied-request-ID
// window used for idempotent retries.
const DefaultDedupWindow = 4096

// Shim validates and tracks controller updates for one P4 program.
type Shim struct {
	mu       sync.Mutex
	cp       *Compiled
	shadow   map[string][]*dataplane.Entry
	defaults map[string]*dataplane.DefaultAction
	counters struct{ validated, rejected, fastHits, slowHits int }
	obs      shimObs

	// fastpath gates the compiled-bytecode evaluation tier (on by
	// default); when off, every condition takes the term-DAG slow path.
	fastpath bool

	perAssertion reservoir
	perUpdate    reservoir

	// applied is the idempotency window: outcome of recently applied
	// (or rejected) keyed mutations, so a retried request after an
	// ambiguous transport failure is not double-applied.
	applied      map[string]error
	appliedOrder []string
	appliedHead  int

	dedupCap int

	// store, when attached, journals mutations and snapshots state for
	// crash recovery.
	store *Store
	seq   int64
}

// New compiles a spec file into a shim.
func New(file *spec.File) (*Shim, error) {
	cp, err := Compile(file)
	if err != nil {
		return nil, err
	}
	return NewFromCompiled(cp), nil
}

// Compile parses a spec file's assertions into a shareable, read-only
// compiled annotation set (see Compiled).
func Compile(file *spec.File) (*Compiled, error) {
	cp := &Compiled{
		file:   file,
		f:      smt.NewFactory(),
		tables: make(map[string]*table, len(file.Tables)),
	}
	for _, ts := range file.Tables {
		for _, k := range ts.Keys {
			if k.Width < 1 || k.Width > smt.MaxWidth { // sizes the mask tables
				return nil, fmt.Errorf("shim: table %s: key %s has width %d, want 1 to %d", ts.Name, k.Path, k.Width, smt.MaxWidth)
			}
		}
		cp.tables[ts.Name] = newTable(ts)
	}
	for _, a := range file.Assertions {
		primary, linked := cp.tables[a.Table], cp.tables[a.Linked]
		if primary == nil {
			return nil, fmt.Errorf("shim: assertion references unknown table %s", a.Table)
		}
		if a.Linked != "" && linked == nil {
			return nil, fmt.Errorf("shim: assertion references unknown linked table %s", a.Linked)
		}
		if linked == primary {
			linked = nil
		}
		for i := range a.Forbidden {
			t, err := a.ParseForbidden(cp.f, i)
			if err != nil {
				return nil, fmt.Errorf("shim: table %s: %w", a.Table, err)
			}
			// Cluster by every table the assertion mentions (step a).
			primary.conds = append(primary.conds, condition{src: a, i: i, term: t, other: linked})
			if linked != nil {
				linked.conds = append(linked.conds, condition{src: a, i: i, term: t, other: primary})
			}
		}
	}
	cp.compilePlans()
	cp.scratch.New = func() any {
		regs := make([]uint64, cp.maxRegs)
		return &regs
	}
	return cp, nil
}

// NewFromCompiled builds a shim over an already-compiled annotation set.
// Many shims (fleet shards) may share one Compiled: each gets its own
// shadow state, dedup window and statistics; the compiled terms are only
// ever read.
func NewFromCompiled(cp *Compiled) *Shim {
	return &Shim{
		cp:           cp,
		fastpath:     true,
		shadow:       map[string][]*dataplane.Entry{},
		defaults:     map[string]*dataplane.DefaultAction{},
		perAssertion: newReservoir(DefaultStatsCap),
		perUpdate:    newReservoir(DefaultStatsCap),
		// appliedOrder grows on demand in recordOutcome: preallocating
		// the full window is a 64KB zeroed pointer-slice per shim, pure
		// waste for callers that never pass an idempotency key.
		applied: map[string]error{},
	}
}

// SetFastpath enables or disables the compiled-bytecode evaluation tier.
// Decisions are identical either way (the differential harness proves
// it); off forces every condition through the term-DAG slow path, which
// is the reference semantics the differential tests, the fuzzer and the
// benchmarks' oracles compare the fast tier against.
func (s *Shim) SetFastpath(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fastpath = on
}

// Counters returns the scalar counters only, skipping the latency
// reservoir snapshots Stats copies — cheap enough to poll per batch.
func (s *Shim) Counters() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Validated:    s.counters.validated,
		Rejected:     s.counters.rejected,
		FastpathHits: s.counters.fastHits,
		SlowpathHits: s.counters.slowHits,
	}
}

// Stats returns a copy of the accumulated statistics.
func (s *Shim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Validated:    s.counters.validated,
		Rejected:     s.counters.rejected,
		FastpathHits: s.counters.fastHits,
		SlowpathHits: s.counters.slowHits,
		PerAssertion: s.perAssertion.snapshot(),
		PerUpdate:    s.perUpdate.snapshot(),
	}
}

// SetStatsCap bounds the latency reservoirs to the given number of
// samples (default DefaultStatsCap). Call before serving traffic for
// exact percentile windows.
func (s *Shim) SetStatsCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.perAssertion.setCap(n)
	s.perUpdate.setCap(n)
}

// SetDedupWindow bounds the applied-request-ID window (default
// DefaultDedupWindow entries).
func (s *Shim) SetDedupWindow(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	// Reset: the window only affects retries in flight, which a
	// reconfiguration boundary need not preserve.
	s.applied = map[string]error{}
	s.appliedOrder = make([]string, 0, n)
	s.appliedHead = 0
	s.dedupCap = n
}

// ShadowSize returns the number of shadow entries for a table.
func (s *Shim) ShadowSize(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shadow[table])
}

// Validate checks an update without applying it.
func (s *Shim) Validate(u *Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.validateLocked(u)
}

// Apply validates an update and, when safe, records it in the shadow
// state (mirroring its insertion into the switch).
func (s *Shim) Apply(u *Update) error { return s.ApplyWithKey("", u) }

// ApplyWithKey is Apply with an idempotency key: a key already in the
// dedup window returns the recorded outcome without re-applying, so a
// controller retrying after an ambiguous transport failure cannot
// double-insert a rule. An empty key disables deduplication.
func (s *Shim) ApplyWithKey(key string, u *Update) error {
	return s.apply(key, []*Update{u}, false)
}

func (s *Shim) lookupApplied(key string) (error, bool) {
	if key == "" {
		return nil, false
	}
	err, ok := s.applied[key]
	return err, ok
}

func (s *Shim) recordOutcome(key string, err error) {
	if key == "" {
		return
	}
	if _, ok := s.applied[key]; ok {
		s.applied[key] = err
		return
	}
	capacity := s.dedupCap
	if capacity == 0 {
		capacity = DefaultDedupWindow
	}
	if len(s.appliedOrder) < capacity {
		s.appliedOrder = append(s.appliedOrder, key)
	} else {
		delete(s.applied, s.appliedOrder[s.appliedHead])
		s.appliedOrder[s.appliedHead] = key
		s.appliedHead = (s.appliedHead + 1) % capacity
	}
	s.applied[key] = err
}

// Snapshot materializes the shadow state as a dataplane snapshot.
func (s *Shim) Snapshot() *dataplane.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := dataplane.NewSnapshot()
	for t, es := range s.shadow {
		snap.Entries[t] = append([]*dataplane.Entry(nil), es...)
	}
	for t, d := range s.defaults {
		snap.Defaults[t] = d
	}
	return snap
}

// rejectLocked bumps the rejection tallies (legacy counter + metrics).
func (s *Shim) rejectLocked(e *RejectionError) error {
	s.counters.rejected++
	s.obs.rejected.Inc()
	return e
}

func (s *Shim) validateLocked(u *Update) error {
	start := time.Now()
	defer func() {
		ns := time.Since(start).Nanoseconds()
		s.perUpdate.add(ns)
		s.obs.updateNs.Observe(ns)
	}()
	s.counters.validated++
	s.obs.validated.Inc()

	tb, act, reason := s.cp.check(u)
	if reason != "" {
		return s.rejectLocked(&RejectionError{Table: u.Table, Reason: reason})
	}
	// Default-rule policy: reject buggy actions outright (§4.4).
	if d := u.SetDefault; d != nil && tb.actions[d.Action].Buggy {
		return s.rejectLocked(&RejectionError{Table: u.Table,
			Reason: fmt.Sprintf("default action %s has a reachable bug", d.Action)})
	}
	if u.Entry == nil {
		return nil
	}

	// Two tiers, one plan (fastpath.go): conditions compiled to bytecode
	// run over a pooled register file; the rest (and everything under
	// SetFastpath(false)) are evaluated as terms over an env, built only
	// when such an evaluation actually runs.
	useFast := s.fastpath && tb.hasFast
	var regs []uint64
	if useFast {
		regsp := s.cp.scratch.Get().(*[]uint64)
		defer s.cp.scratch.Put(regsp)
		regs = *regsp
		tb.own.fill(regs, nil, act, u.Entry)
	}
	var env smt.Env

	for ci := range tb.conds {
		c := &tb.conds[ci]
		aStart := time.Now()
		violated, fast := false, false
		if useFast {
			switch {
			case guardsRefute(c.guards, regs):
				// A false implied conjunct decides the condition without
				// a shadow scan, an env build or a term-DAG walk.
				fast = true
			case c.prog != nil:
				violated, fast = s.violated(c, regs, nil), true
			}
		}
		if fast {
			s.counters.fastHits++
			s.obs.fastpathHits.Inc()
		} else {
			if env == nil {
				env = smt.Env{}
				tb.own.fill(nil, env, act, u.Entry)
			}
			violated = s.violated(c, nil, env)
			s.counters.slowHits++
			s.obs.slowpathHits.Inc()
		}
		aNs := time.Since(aStart).Nanoseconds()
		s.perAssertion.add(aNs)
		s.obs.assertNs.Observe(aNs)
		if violated {
			return s.rejectLocked(&RejectionError{Table: u.Table, Assertion: c.src, Forbidden: c.src.Forbidden[c.i]})
		}
	}
	return nil
}

// violated evaluates one forbidden condition under the update's bindings
// — in regs on the bytecode tier, in env (non-nil) on the term tier. A
// condition that reads its assertion's other table is violated if ANY
// shadow entry of that table completes the forbidden shape (the paper's
// step c, linear in that table's size).
func (s *Shim) violated(c *condition, regs []uint64, env smt.Env) bool {
	if c.scan == nil {
		return c.holds(regs, env)
	}
	entries := s.shadow[c.scan.tb.ts.Name]
	held := false
	for _, e := range entries {
		c.scan.fill(regs, env, c.scan.tb.actions[e.Action], e)
		if held = c.holds(regs, env); held {
			break
		}
	}
	// With no entry bound the scanned table's variables read zero, hit
	// included: for this condition when there is no candidate entry, and
	// for later ones that name them without scanning that table.
	c.scan.clear(regs, env)
	if len(entries) == 0 {
		return c.holds(regs, env)
	}
	return held
}
