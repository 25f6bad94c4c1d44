// Inprocessing: clause-database cleaning between Solve calls. At decision
// level 0, Inprocess deletes clauses satisfied by level-0 facts and strips
// false literals. A retracted activation scope asserts ¬act at level 0,
// which satisfies every guard clause of that scope and strengthens every
// learnt clause that mentions act to its scope-independent content, so
// later checks stop propagating through dead scopes.
//
// Both transformations replace clauses by equivalents under the level-0
// facts, so verdicts and models are unchanged. The pass iterates in
// clause-index order: results are deterministic for a given solver
// history.
package sat

// Inprocess cleans the clause database in place and returns how many
// clauses it deleted (satisfied by level-0 facts, or shrunk to a unit that
// became a fact). It must be called at decision level 0, i.e. between
// Solve calls.
func (s *Solver) Inprocess() (deleted int) {
	s.init()
	if !s.okState {
		return 0
	}
	if s.decisionLevel() != 0 {
		panic("sat: Inprocess above decision level 0")
	}
	if s.propagate() != -1 {
		s.okState = false
		return 0
	}
	// Level-0 facts need no reason clauses (analyze skips level-0 vars),
	// and clearing them lets the loop below delete any clause freely.
	for _, l := range s.trail {
		s.reason[l.Var()] = -1
	}
	// Loop until fixpoint: stripping can create units whose propagation
	// satisfies or shortens further clauses.
	for {
		changed := false
		for i := range s.clauses {
			c := &s.clauses[i]
			if c.deleted {
				continue
			}
			satisfied, hasFalse := false, false
			for _, l := range c.lits {
				switch s.value(l) {
				case lTrue:
					satisfied = true
				case lFalse:
					hasFalse = true
				}
			}
			if satisfied {
				s.deleteClause(i)
				deleted++
				changed = true
				continue
			}
			if !hasFalse {
				continue
			}
			changed = true
			s.detachClause(i)
			out := c.lits[:0]
			for _, l := range c.lits {
				if s.value(l) != lFalse {
					out = append(out, l)
				}
			}
			c.lits = out
			switch len(out) {
			case 0:
				s.okState = false
				return deleted
			case 1:
				s.markDeleted(i)
				deleted++
				s.uncheckedEnqueue(out[0], -1)
			default:
				s.watchClause(i)
			}
		}
		if s.propagate() != -1 {
			s.okState = false
			return deleted
		}
		if !changed {
			return deleted
		}
	}
}
