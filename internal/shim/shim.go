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
	"slices"
	"strings"
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

// Stats holds a shim's validation counters. Latency is not among them:
// the bf4_shim_update_ns and bf4_shim_assertion_ns histograms of the
// registry SetObs attaches are its only record (§5.3).
type Stats struct {
	Validated int
	Rejected  int
	// FastpathHits counts assertion evaluations served by a compiled
	// bytecode program; SlowpathHits counts term-DAG evaluations (an
	// operator the lowerer does not take above 64 bits, or
	// SetFastpath(false)).
	FastpathHits int
	SlowpathHits int
}

// DefaultDedupWindow is the size of the applied-request-ID window used
// for idempotent retries.
const DefaultDedupWindow = 4096

// Shim validates and tracks controller updates for one P4 program.
type Shim struct {
	mu sync.Mutex
	cp *Compiled
	// shadow holds each table's entries by table.idx. cands holds, by
	// the scanned table's idx and then by condition.at, each scanning
	// condition's candidate rows: the shadow entries that pass its
	// filters, in shadow order (keepRows).
	shadow   [][]*dataplane.Entry
	cands    [][]candidates
	defaults map[string]*dataplane.DefaultAction
	counters struct{ validated, rejected, fastHits, slowHits int }
	obs      shimObs

	// fastpath gates the compiled-bytecode evaluation tier (on by
	// default); when off, every condition takes the term-DAG slow path.
	fastpath bool

	// applied is the idempotency window: outcome of recently applied
	// (or rejected) keyed mutations, so a retried request after an
	// ambiguous transport failure is not double-applied.
	applied      map[string]error
	appliedOrder []string
	appliedHead  int

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
// compiled annotation set (see Compiled). The file is outside input: a null
// table, action or assertion, and a key or parameter width outside 1 to
// smt.MaxWidth, are errors.
func Compile(file *spec.File) (*Compiled, error) {
	cp := &Compiled{
		file:   file,
		f:      smt.NewFactory(),
		tables: make(map[string]*table, len(file.Tables)),
	}
	for i, ts := range file.Tables {
		if ts == nil {
			return nil, fmt.Errorf("shim: table %d is null", i)
		}
		for _, k := range ts.Keys {
			if k.Width < 1 || k.Width > smt.MaxWidth { // sizes the mask tables
				return nil, fmt.Errorf("shim: table %s: key %s has width %d, want 1 to %d", ts.Name, k.Path, k.Width, smt.MaxWidth)
			}
		}
		for j, a := range ts.Actions {
			if a == nil {
				return nil, fmt.Errorf("shim: table %s: action %d is null", ts.Name, j)
			}
			for _, p := range a.Params {
				if p.Width < 1 || p.Width > smt.MaxWidth {
					return nil, fmt.Errorf("shim: table %s: action %s: parameter %s has width %d, want 1 to %d", ts.Name, a.Name, p.Name, p.Width, smt.MaxWidth)
				}
			}
		}
		tb := newTable(ts, len(cp.tables))
		if old := cp.tables[ts.Name]; old != nil {
			tb.idx = old.idx // a later schema of the same name replaces it
		}
		cp.tables[ts.Name] = tb
	}
	for _, tb := range cp.tables {
		cp.byName = append(cp.byName, tb)
	}
	slices.SortFunc(cp.byName, func(a, b *table) int { return strings.Compare(a.ts.Name, b.ts.Name) })
	for i, a := range file.Assertions {
		if a == nil {
			return nil, fmt.Errorf("shim: assertion %d is null", i)
		}
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
// shadow state, dedup window and counters; the compiled terms are only
// ever read.
func NewFromCompiled(cp *Compiled) *Shim {
	cands := make([][]candidates, len(cp.tables))
	for _, tb := range cp.byName {
		cands[tb.idx] = make([]candidates, len(tb.scanners))
	}
	return &Shim{
		cp:       cp,
		fastpath: true,
		shadow:   make([][]*dataplane.Entry, len(cp.tables)),
		cands:    cands,
		defaults: map[string]*dataplane.DefaultAction{},
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

// Counters returns a copy of the validation counters.
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

// ShadowSize returns the number of shadow entries for a table.
func (s *Shim) ShadowSize(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tb := s.cp.tables[table]; tb != nil {
		return len(s.shadow[tb.idx])
	}
	return 0
}

// Validate checks an update without applying it.
func (s *Shim) Validate(u *Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.validateLocked(u)
	return err
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
	if len(s.appliedOrder) < DefaultDedupWindow {
		s.appliedOrder = append(s.appliedOrder, key)
	} else {
		delete(s.applied, s.appliedOrder[s.appliedHead])
		s.appliedOrder[s.appliedHead] = key
		s.appliedHead = (s.appliedHead + 1) % DefaultDedupWindow
	}
	s.applied[key] = err
}

// Snapshot materializes the shadow state as a dataplane snapshot.
func (s *Shim) Snapshot() *dataplane.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := dataplane.NewSnapshot()
	for _, tb := range s.cp.byName {
		if es := s.shadow[tb.idx]; len(es) > 0 {
			snap.Entries[tb.ts.Name] = slices.Clone(es)
		}
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

// epoch anchors the validation clock: time.Since of a Time that carries a
// monotonic reading reads the monotonic clock alone, once.
var epoch = time.Now()

func monoNow() int64 { return int64(time.Since(epoch)) }

// validateLocked judges u against the shadow state and returns its table
// (nil when the update is refused). With a registry attached it reads the
// clock once at every boundary, for the latency histograms: the start,
// the start of the assertions, the end of each, and the end when that is
// not the last assertion's. With none it reads no clock.
func (s *Shim) validateLocked(u *Update) (*table, error) {
	timed := s.obs.updateNs != nil
	var start, last int64
	if timed {
		start = monoNow()
		last = start
		defer func() {
			if last == start {
				last = monoNow()
			}
			s.obs.updateNs.Observe(last - start)
		}()
	}
	s.counters.validated++
	s.obs.validated.Inc()

	tb, act, reason := s.cp.check(u)
	if reason != "" {
		return nil, s.rejectLocked(&RejectionError{Table: u.Table, Reason: reason})
	}
	// Default-rule policy: reject buggy actions outright (§4.4).
	if d := u.SetDefault; d != nil && tb.actions[d.Action].Buggy {
		return nil, s.rejectLocked(&RejectionError{Table: u.Table,
			Reason: fmt.Sprintf("default action %s has a reachable bug", d.Action)})
	}
	if u.Entry == nil || len(tb.conds) == 0 {
		return tb, nil
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

	if timed {
		last = monoNow()
	}
	for ci := range tb.conds {
		c := &tb.conds[ci]
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
		if timed {
			now := monoNow()
			s.obs.assertNs.Observe(now - last)
			last = now
		}
		if violated {
			return nil, s.rejectLocked(&RejectionError{Table: u.Table, Assertion: c.src, Forbidden: c.src.Forbidden[c.i]})
		}
	}
	return tb, nil
}

// violated evaluates one forbidden condition under the update's bindings
// — in regs on the bytecode tier, in env (non-nil) on the term tier. A
// condition that reads its assertion's other table is violated if ANY
// shadow entry of that table completes the forbidden shape (the paper's
// step c): on the term tier every entry is tried, on the bytecode tier
// only the condition's candidates, whose rows were built and filtered
// when they were committed.
func (s *Shim) violated(c *condition, regs []uint64, env smt.Env) bool {
	b := c.scan
	if b == nil {
		return c.holds(regs, env)
	}
	entries := s.shadow[b.tb.idx]
	held := false
	if env == nil {
		cs := &s.cands[b.tb.idx][c.at]
		for i, n := 0, b.hi-b.lo; i < len(cs.at); i++ {
			copy(regs[b.lo:b.hi], cs.rows[i*n:])
			if held = c.prog.Eval(regs); held {
				break
			}
		}
	} else {
		for _, e := range entries {
			b.fill(nil, env, b.tb.actions[e.Action], e)
			if held = c.holds(nil, env); held {
				break
			}
		}
	}
	// With no entry bound the scanned table's variables read zero, hit
	// included: for this condition when there is no candidate entry, and
	// for later ones that name them without scanning that table.
	b.clear(regs, env)
	if len(entries) == 0 {
		return c.holds(regs, env)
	}
	return held
}

// candidates are the shadow entries of a scanned table that pass one
// condition's filters: their positions in the shadow, and back to back a
// row of hi-lo words each, what binding.fill writes to regs[lo:hi].
type candidates struct {
	at   []int
	rows []uint64
}

// keepRows brings the candidate rows of every condition that scans tb in
// step with tb's shadow entries from the from-th on, the ones before it
// being unchanged: it drops the rows of entries at or past from, then
// fills the binding for each entry there now and keeps its row where
// every filter holds. Commit, rollback and restore all go through it.
func (s *Shim) keepRows(tb *table, from int) {
	if len(tb.scanners) == 0 {
		return
	}
	regsp := s.cp.scratch.Get().(*[]uint64)
	defer s.cp.scratch.Put(regsp)
	regs, es := *regsp, s.shadow[tb.idx]
	for k, c := range tb.scanners {
		cs, b := &s.cands[tb.idx][k], c.scan
		n := len(cs.at)
		for n > 0 && cs.at[n-1] >= from {
			n--
		}
		cs.at, cs.rows = cs.at[:n], cs.rows[:n*(b.hi-b.lo)]
	entry:
		for i := from; i < len(es); i++ {
			b.fill(regs, nil, tb.actions[es[i].Action], es[i])
			for _, f := range c.filters {
				if !f.Eval(regs) {
					continue entry
				}
			}
			cs.at = append(cs.at, i)
			cs.rows = append(cs.rows, regs[b.lo:b.hi]...)
		}
	}
}
