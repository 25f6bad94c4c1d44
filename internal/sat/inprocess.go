// Inprocessing: clause-database cleaning between Solve calls. At decision
// level 0, Inprocess deletes the clauses level-0 facts satisfy. A retracted
// activation scope asserts ¬act at level 0; every guard clause of that
// scope, and every clause learnt from one, holds ¬act, so the pass deletes
// them all and later checks stop propagating through dead scopes.
//
// Deleting a satisfied clause leaves an equivalent clause set under the
// level-0 facts, so verdicts and models are unchanged. The pass walks in
// attach order: results are deterministic for a given solver history.
// What it deletes stays in the arena as counted waste; once that exceeds
// half the live words the pass ends with a compaction.
package sat

// Inprocess deletes the clauses satisfied by level-0 facts and returns how
// many it deleted. It must be called at decision level 0, i.e. between
// Solve calls.
func (s *Solver) Inprocess() (deleted int) {
	s.init()
	if !s.okState {
		return 0
	}
	if s.decisionLevel() != 0 {
		panic("sat: Inprocess above decision level 0")
	}
	for _, cref := range s.clauses {
		if s.arena[cref]&deletedBit != 0 {
			continue
		}
		for _, w := range s.litsOf(cref) {
			if s.value(Lit(w)) == lTrue {
				s.deleteClause(cref)
				deleted++
				break
			}
		}
	}
	// Level-0 facts need no reason clauses (analyze skips level-0 vars),
	// and every clause that was one is satisfied and gone: no reason may
	// outlive its clause, since a compaction hands the offset to another.
	for _, l := range s.trail {
		s.reason[l.Var()] = -1
	}
	s.collectGarbage()
	return deleted
}
