// Package solver is the Z3-like façade bf4's algorithms program against:
// assert formulas, check satisfiability under assumptions, extract models
// and unsat cores. It glues the hash-consed term layer (internal/smt) to
// the bit-blaster (internal/bitblast) and the CDCL core (internal/sat),
// and is incremental: learned clauses and blasted circuitry persist across
// Check calls, which is what makes the per-bug reachability queries and
// Infer's model/core loop cheap after the first call.
//
// There is one way to ask: Check under assumptions. A formula that holds
// for one query — a bug's reachability condition, an Infer cube — is an
// assumption, never an assertion that is later taken back, so every clause
// the solver holds follows from what was asserted and stays valid for every
// later check (the SAT core never deletes one).
package solver

import (
	"maps"
	"time"

	"bf4/internal/bitblast"
	"bf4/internal/obs"
	"bf4/internal/sat"
	"bf4/internal/smt"
)

// Result mirrors sat.Result at the SMT level.
type Result = sat.Result

// Re-exported results for call-site readability.
const (
	Sat   = sat.Sat
	Unsat = sat.Unsat
)

// Solver is an incremental QF_BV solver. Create with New; not safe for
// concurrent use.
type Solver struct {
	f    *smt.Factory
	sat  *sat.Solver
	ctx  *bitblast.Context
	vars map[*smt.Term]bool // variables seen so far, for model extraction

	// varSeen records every DAG node registerVars has walked (keyed by
	// the term's factory-unique id), so repeated asserts over shared
	// structure cost one walk of each distinct node in total instead of
	// re-walking the whole DAG per call.
	varSeen map[uint32]bool

	lastCore []*smt.Term
	checks   int

	// lastCheck is the per-query statistics delta of the most recent
	// Check call.
	lastCheck CheckStats

	// hooks holds retained metric handles when SetObs installed a
	// registry; the zero value (all nil) is the disabled layer — every
	// recording call is a nil-check no-op.
	hooks obsHooks

	// tag labels the checks that follow in the slowest-checks table.
	tag obs.CheckRecord
}

// CheckStats describes one Check call in isolation: every field is a
// delta over that call, not a cumulative per-solver total. Cumulative
// counters under solver reuse (incremental checks, one solver serving
// many queries in a worker pool) misattribute work across queries; the
// snapshot-delta form is what the observability layer and the experiment
// harness consume.
type CheckStats struct {
	// Result is the check's outcome.
	Result Result
	// Search holds the SAT search-statistic deltas for this check.
	Search sat.Stats
	// BlastTime covers bit-blasting of the assumptions (asserted formulas
	// are lowered, and timed, in Assert); SearchTime covers the CDCL search
	// itself.
	BlastTime, SearchTime time.Duration
}

// obsHooks are the solver's retained metric handles (nil when disabled).
type obsHooks struct {
	reg                                          *obs.Registry
	checks, sat, unsat                           *obs.Counter
	conflicts, propagations, decisions, restarts *obs.Counter
	learned, blastNs, searchNs, cancelled        *obs.Counter
	firstChecks, firstConflicts                  *obs.Counter
	checkConflicts, checkNs                      *obs.Histogram
}

// SetObs installs a metrics registry: every subsequent Check records its
// per-query deltas under the bf4_solver_* names, and every Assert adds the
// time it spent lowering its formula to CNF to bf4_solver_blast_ns_total,
// the same counter Check's assumption blasting feeds, and offers every check
// to the registry's slowest-checks table (see Tag). A nil registry disables
// recording (the default). Counters are shared and atomic, so many
// solvers across worker goroutines may point at one registry.
func (s *Solver) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.hooks = obsHooks{}
		return
	}
	s.hooks = obsHooks{
		reg:            reg,
		checks:         reg.Counter("bf4_solver_checks_total"),
		sat:            reg.Counter("bf4_solver_sat_total"),
		unsat:          reg.Counter("bf4_solver_unsat_total"),
		conflicts:      reg.Counter("bf4_solver_conflicts_total"),
		propagations:   reg.Counter("bf4_solver_propagations_total"),
		decisions:      reg.Counter("bf4_solver_decisions_total"),
		restarts:       reg.Counter("bf4_solver_restarts_total"),
		learned:        reg.Counter("bf4_solver_learned_clauses_total"),
		cancelled:      reg.Counter("bf4_solver_cancelled_literals_total"),
		firstChecks:    reg.Counter("bf4_solver_first_checks_total"),
		firstConflicts: reg.Counter("bf4_solver_first_check_conflicts_total"),
		blastNs:        reg.Counter("bf4_solver_blast_ns_total"),
		searchNs:       reg.Counter("bf4_solver_search_ns_total"),
		checkConflicts: reg.Histogram("bf4_solver_check_conflicts", obs.CountBuckets),
		checkNs:        reg.Histogram("bf4_solver_check_ns", obs.DurationBuckets),
	}
}

// New returns an empty solver over the given term factory.
func New(f *smt.Factory) *Solver {
	s := &Solver{
		ctx:     bitblast.New(f, sat.New()),
		vars:    make(map[*smt.Term]bool),
		varSeen: make(map[uint32]bool),
	}
	return s.Reset(f)
}

// Reset empties s for terms of f, keeping the memory its SAT core and its
// tables hold: every later call answers as it would on New(f). Every field
// is named here or zero.
func (s *Solver) Reset(f *smt.Factory) *Solver {
	clear(s.vars)
	clear(s.varSeen)
	s.ctx.Reset(f)
	*s = Solver{
		f:        f,
		sat:      s.ctx.Solver(),
		ctx:      s.ctx,
		vars:     s.vars,
		varSeen:  s.varSeen,
		tag:      obs.CheckRecord{Node: -1},
		lastCore: s.lastCore[:0],
	}
	return s
}

// CopyFrom overwrites s with an independent copy of src and returns s: the
// same assertions and registered variables over a deep copy
// of the SAT state (clauses, learnt clauses, activities, saved phases) and
// of the blasted-term memo, written into the memory s already holds where
// that is large enough. Terms src has blasted cost the copy nothing, its
// first Check starts as warm as src's next one would, nothing s held before
// shows, and nothing done to either afterwards shows in the other, so
// copies of one solver may run on different goroutines. The installed
// metrics registry is shared (its counters are atomic).
func (s *Solver) CopyFrom(src *Solver) *Solver {
	ctx, vars, varSeen, lastCore := s.ctx, s.vars, s.varSeen, s.lastCore
	if ctx == nil {
		ctx, vars, varSeen = new(bitblast.Context), make(map[*smt.Term]bool, len(src.vars)), make(map[uint32]bool, len(src.varSeen))
	}
	clear(vars)
	clear(varSeen)
	maps.Copy(vars, src.vars)
	maps.Copy(varSeen, src.varSeen)
	*s = *src
	s.ctx = ctx.CopyFrom(src.ctx)
	s.sat = s.ctx.Solver()
	s.vars, s.varSeen = vars, varSeen
	s.lastCore = append(lastCore[:0], src.lastCore...)
	return s
}

// Tag labels the checks that follow for the slowest-checks table
// (obs.CheckRecord): the phase issuing them, this solver's name within it,
// and the bug node they decide (-1 when they are not about one node). A
// fork inherits its parent's tag. Nothing reads a tag unless a registry is
// installed.
func (s *Solver) Tag(phase, name string, node int) {
	s.tag = obs.CheckRecord{Phase: phase, Solver: name, Node: node}
}

func (s *Solver) registerVars(t *smt.Term) {
	for _, v := range t.VarsSeen(nil, s.varSeen) {
		if s.vars[v] {
			continue
		}
		s.vars[v] = true
		// Blast the variable now so that model extraction always works,
		// even if the blasted circuit does not depend on it.
		if v.Sort().IsBool() {
			s.ctx.Literal(v)
		} else {
			s.ctx.Bits(v)
		}
	}
}

// Assert adds t to the solver's constraint set for good. A formula that
// should hold for one query only is a Check assumption.
func (s *Solver) Assert(t *smt.Term) {
	start := time.Now()
	defer func() { s.hooks.blastNs.Add(time.Since(start).Nanoseconds()) }()
	s.registerVars(t)
	s.ctx.AssertTrue(t)
}

// Check determines satisfiability of the asserted formulas together with
// the given assumptions. Unlike Assert, assumptions hold only for this
// call. After Unsat, UnsatCore returns the subset of assumptions used.
func (s *Solver) Check(assumptions ...*smt.Term) Result {
	s.checks++
	start := time.Now()
	preStats := s.sat.StatsSnapshot()
	lits := make([]sat.Lit, 0, len(assumptions))
	byLit := make(map[sat.Lit]*smt.Term, len(assumptions))
	for _, a := range assumptions {
		// A constant-true assumption is a tautology and cannot appear in
		// any unsat core; a constant-false one blasts to the false literal
		// and surfaces in the core.
		if a.IsTrue() {
			continue
		}
		s.registerVars(a)
		l := s.ctx.Literal(a)
		if _, dup := byLit[l]; !dup {
			byLit[l] = a
			lits = append(lits, l)
		}
	}
	blastDone := time.Now()
	res := s.sat.Solve(lits...)
	if res == Unsat {
		s.lastCore = s.lastCore[:0]
		for _, l := range s.sat.FailedAssumptions() {
			if t, ok := byLit[l]; ok {
				s.lastCore = append(s.lastCore, t)
			}
		}
	}
	s.lastCheck = CheckStats{
		Result:     res,
		Search:     s.sat.StatsSnapshot().Sub(preStats),
		BlastTime:  blastDone.Sub(start),
		SearchTime: time.Since(blastDone),
	}
	s.recordCheck()
	return res
}

// recordCheck publishes the last check's deltas to the installed
// registry; with no registry every call is a nil-receiver no-op.
func (s *Solver) recordCheck() {
	h := &s.hooks
	h.checks.Inc()
	if s.lastCheck.Result == Sat {
		h.sat.Inc()
	} else {
		h.unsat.Inc()
	}
	d := s.lastCheck.Search
	h.conflicts.Add(d.Conflicts)
	h.propagations.Add(d.Propagations)
	h.decisions.Add(d.Decisions)
	h.restarts.Add(d.Restarts)
	h.learned.Add(d.Learned)
	h.cancelled.Add(d.CancelledLiterals)
	h.blastNs.Add(s.lastCheck.BlastTime.Nanoseconds())
	h.searchNs.Add(s.lastCheck.SearchTime.Nanoseconds())
	h.checkConflicts.Observe(d.Conflicts)
	h.checkNs.Observe(s.lastCheck.BlastTime.Nanoseconds() + s.lastCheck.SearchTime.Nanoseconds())
	rec := s.tag
	// A cold start: the first check of this solver and of every solver it
	// was copied from (a fork carries its source's count).
	rec.First = s.checks == 1
	if rec.First {
		h.firstChecks.Inc()
		h.firstConflicts.Add(d.Conflicts)
	}
	rec.CNFVars, rec.CNFClauses = s.sat.NumVars(), s.sat.NumClauses()
	rec.Decisions, rec.Propagations, rec.Conflicts = d.Decisions, d.Propagations, d.Conflicts
	rec.Cancelled = d.CancelledLiterals
	rec.Ns = s.lastCheck.BlastTime.Nanoseconds() + s.lastCheck.SearchTime.Nanoseconds()
	h.reg.RecordCheck(rec)
}

// UnsatCore returns, after an Unsat Check, a subset of the assumption
// terms sufficient for unsatisfiability. The slice is valid until the next
// Check.
func (s *Solver) UnsatCore() []*smt.Term { return s.lastCore }

// Model returns, after a Sat Check, an environment assigning every
// variable the solver has seen. Variables the circuit left unconstrained
// get whatever phase the SAT solver chose.
func (s *Solver) Model() smt.Env {
	env := make(smt.Env, len(s.vars))
	for v := range s.vars {
		env[v.Name()] = s.ctx.ModelValue(v)
	}
	return env
}

// ModelOf is Model restricted to the variables of the given terms: the same
// values, so evaluating any of the terms under it gives what Model would,
// without a big.Int for every other variable of the program. A variable the
// solver has never seen stays out, as it does in Model, and reads zero.
func (s *Solver) ModelOf(terms ...*smt.Term) smt.Env {
	env := smt.Env{}
	seen := map[uint32]bool{}
	for _, t := range terms {
		for _, v := range t.VarsSeen(nil, seen) {
			if s.vars[v] {
				env[v.Name()] = s.ctx.ModelValue(v)
			}
		}
	}
	return env
}

// Stats reports SAT-level statistics.
func (s *Solver) Stats() (vars, clauses int, conflicts, propagations int64) {
	return s.sat.NumVars(), s.sat.NumClauses(), s.sat.Conflicts(), s.sat.Propagations()
}
