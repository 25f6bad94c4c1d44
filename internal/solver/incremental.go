// Incremental mode: one persistent solver serves every bug check of a
// CFG slice. Each check runs inside a retractable activation scope
// (CheckIn/Retract) whose condition is asserted as direct guard clauses,
// so learned clauses survive from check to check, and Retract cleans the
// clauses of the scope it closed out of the database.
//
// Incremental mode changes which CNF the solver sees, never what a check
// means: verdicts with -incremental=on and off are byte-identical on the
// full corpus, which the driver's identity harness enforces the same way
// it does for -analysis and -rewrite.

package solver

import "bf4/internal/smt"

// SetIncremental toggles incremental mode on this solver: guard-clause
// scope assertions, and clause cleaning after every Retract (one sweep over
// the database; deferring it measurably costs later checks propagation
// work on dead guard clauses). Call it before the first scoped Assert.
func (s *Solver) SetIncremental(on bool) { s.incremental = on }

// Incremental reports whether incremental mode is on.
func (s *Solver) Incremental() bool { return s.incremental }

// CheckIn opens a retractable scope, asserts cond inside it, and checks
// satisfiability. The scope is left open so the caller can read Model or
// UnsatCore against it; Retract closes it. The scope lives in the
// solver's own state between the two calls, which is what lets one
// persistent solver interleave check, model extraction, and retraction
// across a whole slice's bug list.
func (s *Solver) CheckIn(cond *smt.Term) Result {
	s.Push()
	s.Assert(cond)
	return s.Check()
}

// Retract closes the scope opened by the most recent CheckIn. On an
// incremental solver it then cleans the clause database at level 0, which
// deletes the now-satisfied guard clauses of the retracted scope and
// strengthens learned clauses that mention its dead activation literal
// down to their scope-independent content.
func (s *Solver) Retract() {
	s.Pop()
	if s.incremental {
		s.sat.Inprocess()
	}
}

// CheckScoped checks cond inside a retractable activation scope when the
// solver is incremental, falling back to an assumption-based Check
// otherwise. Both paths leave the model and unsat core readable; the
// scoped path additionally lets learned clauses that mention cond's
// circuitry persist for later checks.
func (s *Solver) CheckScoped(cond *smt.Term) Result {
	if !s.incremental {
		return s.Check(cond)
	}
	res := s.CheckIn(cond)
	s.Retract()
	return res
}
