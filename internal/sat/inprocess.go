// Inprocessing: clause-database cleaning between Solve calls. At decision
// level 0, Inprocess deletes clauses satisfied by level-0 facts and strips
// false literals. A retracted activation scope asserts ¬act at level 0,
// which satisfies every guard clause of that scope and strengthens every
// learnt clause that mentions act to its scope-independent content, so
// later checks stop propagating through dead scopes.
//
// Both transformations replace clauses by equivalents under the level-0
// facts, so verdicts and models are unchanged. The pass iterates in
// attach order: results are deterministic for a given solver history.
// What it deletes or strips stays in the arena as counted waste; once that
// exceeds half the live words the pass ends with a compaction.
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
	// Sweep again only after a sweep that made a level-0 fact: a stripped
	// clause can become a unit whose propagation satisfies or shortens
	// clauses the walk had already passed. Deleting a satisfied clause or
	// stripping false literals changes no value, so a sweep that enqueued
	// nothing has left nothing for the next one to find.
	for {
		newFact := false
		for _, cref := range s.clauses {
			h := s.arena[cref]
			if h&deletedBit != 0 {
				continue
			}
			lits := s.litsOf(cref)
			satisfied, hasFalse := false, false
			for _, w := range lits {
				switch s.value(Lit(w)) {
				case lTrue:
					satisfied = true
				case lFalse:
					hasFalse = true
				}
			}
			if satisfied {
				s.deleteClause(cref)
				deleted++
				continue
			}
			if !hasFalse {
				continue
			}
			s.detachClause(cref)
			// Strip in place: the clause keeps its cref and its place in
			// the walk, and the words it gives up are waste.
			n := 0
			for _, w := range lits {
				if s.value(Lit(w)) != lFalse {
					lits[n] = w
					n++
				}
			}
			s.wasted += len(lits) - n
			s.arena[cref] = uint32(n)<<sizeShift | h&learntBit
			switch n {
			case 0:
				s.okState = false
				return deleted
			case 1:
				s.markDeleted(cref)
				deleted++
				s.uncheckedEnqueue(Lit(lits[0]), 0, -1)
				newFact = true
			default:
				s.watchClause(cref)
			}
		}
		if s.propagate() != -1 {
			s.okState = false
			return deleted
		}
		if !newFact {
			// Level-0 facts need no reason clauses (analyze skips level-0
			// vars), and at the fixpoint every clause that was one is
			// satisfied and gone: no reason may outlive its clause, since a
			// compaction hands the offset to another.
			for _, l := range s.trail {
				s.reason[l.Var()] = -1
			}
			s.collectGarbage()
			return deleted
		}
	}
}
