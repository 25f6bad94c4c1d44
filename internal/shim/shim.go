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
	"math/big"
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

// compiledAssertion pre-parses one assertion's forbidden terms.
type compiledAssertion struct {
	src       *spec.Assertion
	terms     []*smt.Term
	primary   *spec.TableSchema
	linked    *spec.TableSchema // nil for single-table assertions
	termBound []map[string]bool // var names each term mentions
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
		file:    file,
		f:       smt.NewFactory(),
		byTable: map[string][]*compiledAssertion{},
		tables:  make(map[string]*spec.TableSchema, len(file.Tables)),
	}
	for _, ts := range file.Tables {
		for _, k := range ts.Keys {
			if k.Width < 1 || k.Width > smt.MaxWidth { // sizes the mask tables
				return nil, fmt.Errorf("shim: table %s: key %s has width %d, want 1 to %d", ts.Name, k.Path, k.Width, smt.MaxWidth)
			}
		}
		cp.tables[ts.Name] = ts
	}
	for _, a := range file.Assertions {
		ca := &compiledAssertion{src: a, primary: file.Table(a.Table)}
		if ca.primary == nil {
			return nil, fmt.Errorf("shim: assertion references unknown table %s", a.Table)
		}
		if a.Linked != "" {
			ca.linked = file.Table(a.Linked)
			if ca.linked == nil {
				return nil, fmt.Errorf("shim: assertion references unknown linked table %s", a.Linked)
			}
		}
		for i := range a.Forbidden {
			t, err := a.ParseForbidden(cp.f, i)
			if err != nil {
				return nil, fmt.Errorf("shim: table %s: %w", a.Table, err)
			}
			ca.terms = append(ca.terms, t)
			names := map[string]bool{}
			for _, vt := range t.Vars(nil) {
				names[vt.Name()] = true
			}
			ca.termBound = append(ca.termBound, names)
		}
		// Cluster by every table the assertion mentions (step a).
		cp.byTable[a.Table] = append(cp.byTable[a.Table], ca)
		if a.Linked != "" && a.Linked != a.Table {
			cp.byTable[a.Linked] = append(cp.byTable[a.Linked], ca)
		}
	}
	cp.compileMasks()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if err, seen := s.lookupApplied(key); seen {
		s.obs.dedupHits.Inc()
		return err
	}
	err := s.validateLocked(u)
	if err == nil {
		// Journal before committing: on a journal failure nothing is
		// applied, and after a crash the journal is the source of truth.
		if err = s.journalLocked(key, []*Update{u}); err == nil {
			s.commitLocked(u)
			// Record the outcome BEFORE any checkpoint: a checkpoint
			// triggered by this very record folds the journal into the
			// snapshot, and the snapshot must carry this key in its
			// dedup window or a crash right after would re-apply the
			// retry.
			s.recordOutcome(key, nil)
			if cerr := s.maybeCheckpointLocked(); cerr != nil {
				// The update is applied and its outcome recorded; the
				// caller's retry resolves through the window.
				return cerr
			}
			return nil
		}
	}
	s.recordOutcome(key, err)
	return err
}

// commitLocked records a validated update in the shadow state.
func (s *Shim) commitLocked(u *Update) {
	if u.Entry != nil {
		s.shadow[u.Table] = append(s.shadow[u.Table], u.Entry)
		s.obs.shadowEntries.Add(1)
	}
	if u.SetDefault != nil {
		s.defaults[u.Table] = u.SetDefault
	}
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
func (s *Shim) rejectLocked() {
	s.counters.rejected++
	s.obs.rejected.Inc()
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

	ts := s.cp.tables[u.Table]
	if ts == nil {
		s.rejectLocked()
		return &RejectionError{Table: u.Table, Reason: "unknown table"}
	}
	// Default-rule policy: reject buggy actions outright (§4.4).
	if u.SetDefault != nil {
		for _, a := range ts.Actions {
			if a.Name == u.SetDefault.Action && a.Buggy {
				s.rejectLocked()
				return &RejectionError{Table: u.Table,
					Reason: fmt.Sprintf("default action %s has a reachable bug", a.Name)}
			}
		}
		return nil
	}
	if u.Entry == nil {
		s.rejectLocked()
		return &RejectionError{Table: u.Table, Reason: "empty update"}
	}
	if len(u.Entry.Keys) != len(ts.Keys) {
		s.rejectLocked()
		return &RejectionError{Table: u.Table,
			Reason: fmt.Sprintf("entry has %d keys, table has %d", len(u.Entry.Keys), len(ts.Keys))}
	}

	// Two-tier dispatch: conditions compiled to bytecode run over a
	// pooled register file; the rest (and everything under SetFastpath(false))
	// takes the term-DAG slow path. Both tiers see identical bindings;
	// the env is built lazily, only when a slow evaluation actually runs.
	plan := s.cp.plans[u.Table]
	useFast := s.fastpath && plan != nil && plan.hasFast
	var regs []uint64
	if useFast {
		regsp := s.cp.scratch.Get().(*[]uint64)
		defer s.cp.scratch.Put(regsp)
		regs = *regsp
		plan.bind(regs, u.Entry)
	}
	var env smt.Env
	var bound map[string]bool

	for ci, ca := range s.cp.byTable[u.Table] {
		for i, term := range ca.terms {
			aStart := time.Now()
			violated, fast := false, false
			if useFast {
				switch {
				case plan.progs[ci][i] != nil:
					violated, fast = plan.progs[ci][i].Eval(regs), true
				case plan.linked[ci][i] != nil:
					violated, fast = s.evalLinkedFast(plan.linked[ci][i], regs), true
				case len(plan.slowGuards[ci][i]) > 0 && guardsRefute(plan.slowGuards[ci][i], regs):
					// A false implied conjunct decides the condition
					// without an env build or term-DAG walk.
					fast = true
				}
			}
			if fast {
				s.counters.fastHits++
				s.obs.fastpathHits.Inc()
			} else {
				if env == nil {
					env = smt.Env{}
					bound = s.cp.bindEntry(env, ts, u.Entry)
				}
				violated = s.evalCondition(ca, i, term, env, bound, ts)
				s.counters.slowHits++
				s.obs.slowpathHits.Inc()
			}
			aNs := time.Since(aStart).Nanoseconds()
			s.perAssertion.add(aNs)
			s.obs.assertNs.Observe(aNs)
			if violated {
				s.rejectLocked()
				return &RejectionError{Table: u.Table, Assertion: ca.src, Forbidden: ca.src.Forbidden[i]}
			}
		}
	}
	return nil
}

// evalCondition evaluates one forbidden term under the update's bindings,
// querying shadow tables for unbound (linked-table) variables: the term
// is violated if ANY completion from the shadow state satisfies it.
func (s *Shim) evalCondition(ca *compiledAssertion, i int, term *smt.Term, env smt.Env, bound map[string]bool, updated *spec.TableSchema) bool {
	// Which mentioned variables are still unbound?
	unboundTables := map[*spec.TableSchema]bool{}
	for name := range ca.termBound[i] {
		if bound[name] {
			continue
		}
		switch {
		case ca.primary != updated && hasPrefixVar(ca.primary, name):
			unboundTables[ca.primary] = true
		case ca.linked != nil && ca.linked != updated && hasPrefixVar(ca.linked, name):
			unboundTables[ca.linked] = true
		}
	}
	if len(unboundTables) == 0 {
		return smt.EvalBool(term, env)
	}
	// Multi-table: try every shadow entry of the other table (the paper's
	// step c — linear in unbound variables, here one auxiliary table).
	for other := range unboundTables {
		entries := s.shadow[other.Name]
		if len(entries) == 0 {
			// No candidate entry can complete the forbidden shape; treat
			// the hit variable as false.
			env2 := env.Clone()
			env2.SetBool(other.Prefix+".hit", false)
			if smt.EvalBool(term, env2) {
				return true
			}
			continue
		}
		for _, e := range entries {
			env2 := env.Clone()
			s.cp.bindEntry(env2, other, e)
			if smt.EvalBool(term, env2) {
				return true
			}
		}
	}
	return false
}

func hasPrefixVar(ts *spec.TableSchema, name string) bool {
	return ts != nil && len(name) > len(ts.Prefix) && name[:len(ts.Prefix)] == ts.Prefix
}

// bindEntry writes an entry's control-variable values into env and
// returns the set of bound names. Match masks come from the per-width
// memo tables built at compile time rather than fresh big.Int
// construction per call.
func (cp *Compiled) bindEntry(env smt.Env, ts *spec.TableSchema, e *dataplane.Entry) map[string]bool {
	bound := map[string]bool{}
	set := func(name string, v *big.Int) {
		env[name] = v
		bound[name] = true
	}
	setB := func(name string, v bool) {
		env.SetBool(name, v)
		bound[name] = true
	}
	setB(ts.Prefix+".hit", true)
	actIdx := 0
	var act *spec.ActionSchema
	for _, a := range ts.Actions {
		if a.Name == e.Action {
			actIdx = a.Index
			act = a
		}
	}
	set(ts.Prefix+".action_run", big.NewInt(int64(actIdx)))
	for j, k := range ts.Keys {
		if j >= len(e.Keys) {
			break
		}
		set(fmt.Sprintf("%s.key%d", ts.Prefix, j), e.Keys[j].Value)
		switch k.MatchKind {
		case "ternary":
			m := e.Keys[j].Mask
			if m == nil {
				m = cp.memoOnes(k.Width)
			}
			set(fmt.Sprintf("%s.mask%d", ts.Prefix, j), m)
		case "lpm":
			plen := e.Keys[j].PrefixLen
			if plen < 0 {
				plen = k.Width
			}
			set(fmt.Sprintf("%s.mask%d", ts.Prefix, j), cp.memoPrefixMask(k.Width, plen))
		}
	}
	if act != nil {
		for pi, p := range act.Params {
			v := big.NewInt(0)
			if pi < len(e.Params) {
				v = e.Params[pi]
			}
			set(fmt.Sprintf("%s.%s.%s", ts.Prefix, act.Name, p.Name), v)
		}
	}
	return bound
}
