package sat

import (
	"slices"
	"testing"
)

// checkInvariants checks the bookkeeping that ties the clause arena, the
// attach-order index and the watch lists together. It holds between calls
// on a solver that is still Okay (a refuted one may keep an empty clause).
func checkInvariants(t testing.TB, s *Solver) {
	t.Helper()
	if !s.Okay() {
		return
	}
	if s.decisionLevel() != 0 {
		t.Fatalf("invariants checked at decision level %d", s.decisionLevel())
	}
	// The index lists every clause once, in arena order, and the live ones
	// plus the counted waste account for every arena word.
	problem, learnt, words := 0, 0, s.wasted
	prev := int32(-1)
	for _, cref := range s.clauses {
		if cref <= prev || int(cref) >= len(s.arena) {
			t.Fatalf("clause index not ascending inside the arena: %d after %d (arena %d words)", cref, prev, len(s.arena))
		}
		prev = cref
		h := s.arena[cref]
		if h&deletedBit != 0 {
			continue
		}
		if h>>sizeShift < 2 {
			t.Fatalf("live clause %d has %d literal(s)", cref, h>>sizeShift)
		}
		words += clauseWords(h)
		if h&learntBit != 0 {
			learnt++
		} else {
			problem++
		}
	}
	if problem != s.NumClauses() || learnt != s.numLearnt {
		t.Fatalf("a walk finds %d problem and %d learnt clauses, the counters say %d and %d", problem, learnt, s.NumClauses(), s.numLearnt)
	}
	if words != len(s.arena) {
		t.Fatalf("live clauses plus %d wasted words make %d, the arena has %d", s.wasted, words, len(s.arena))
	}
	// A reason never outlives its clause (compaction would hand its offset
	// to another).
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 && s.arena[r]&deletedBit != 0 {
			t.Fatalf("%v keeps deleted clause %d as its reason", l, r)
		}
	}
	// Every watcher belongs to a live clause, on the list of the negation
	// of one of its first two literals, tagged exactly when the clause has
	// two literals (and then blocked by the other one).
	type watch struct {
		cref int32
		pos  int
	}
	seen := map[watch]int{}
	for p, ws := range s.watches {
		for _, w := range ws {
			cref := w.cref()
			if int(cref) >= len(s.arena) || s.arena[cref]&deletedBit != 0 {
				t.Fatalf("watch list of %v holds deleted or out-of-arena clause %d", Lit(p), cref)
			}
			lits := s.litsOf(cref)
			pos := slices.Index(lits[:2], uint32(Lit(p).Neg()))
			if pos < 0 {
				t.Fatalf("clause %d %v is on the watch list of %v, which negates neither of its first two literals", cref, lits, Lit(p))
			}
			if bin := w.ref&binFlag != 0; bin != (len(lits) == 2) {
				t.Fatalf("clause %d has %d literals, binary tag %v", cref, len(lits), bin)
			}
			if !slices.Contains(lits, uint32(w.blocker)) || (len(lits) == 2 && uint32(w.blocker) != lits[1-pos]) {
				t.Fatalf("clause %d %v watched on %v has blocker %v", cref, lits, Lit(p), w.blocker)
			}
			seen[watch{cref, pos}]++
		}
	}
	for _, cref := range s.clauses {
		if s.arena[cref]&deletedBit != 0 {
			continue
		}
		for pos := 0; pos < 2; pos++ {
			if n := seen[watch{cref, pos}]; n != 1 {
				t.Fatalf("clause %d %v has %d watchers for literal %d, want 1", cref, s.litsOf(cref), n, pos)
			}
		}
	}
	if len(seen) != 2*(problem+learnt) {
		t.Fatalf("%d watched positions for %d live clauses", len(seen), problem+learnt)
	}
}

// checkCloneAgrees checks that c holds exactly the state s does.
func checkCloneAgrees(t testing.TB, s, c *Solver) {
	t.Helper()
	same := slices.Equal(s.arena, c.arena) && slices.Equal(s.clauses, c.clauses) && s.wasted == c.wasted &&
		slices.Equal(s.assigns, c.assigns) && slices.Equal(s.level, c.level) && slices.Equal(s.reason, c.reason) &&
		slices.Equal(s.polarity, c.polarity) && slices.Equal(s.activity, c.activity) && slices.Equal(s.trail, c.trail) &&
		slices.Equal(s.heap.heap, c.heap.heap) && slices.Equal(s.heap.indices, c.heap.indices) &&
		s.NumClauses() == c.NumClauses() && s.numLearnt == c.numLearnt && s.StatsSnapshot() == c.StatsSnapshot() &&
		slices.EqualFunc(s.watches, c.watches, func(a, b []watcher) bool { return slices.Equal(a, b) })
	if !same {
		t.Fatal("clone differs from its original")
	}
	if len(s.arena) > 0 && &s.arena[0] == &c.arena[0] {
		t.Fatal("clone shares the original's arena")
	}
}

// TestCompactionKeepsTheTrace: compacting the arena at arbitrary points —
// here after every incremental round, far more often than collectGarbage
// would — changes no answer and no search counter, and leaves no waste.
func TestCompactionKeepsTheTrace(t *testing.T) {
	for _, origin := range solverOrigins {
		t.Run(origin.name, func(t *testing.T) { compactionKeepsTheTrace(t, origin.make) })
	}
}

func compactionKeepsTheTrace(t *testing.T, newSolver func() *Solver) {
	s, ref := newSolver(), New()
	for round := 0; round < 40; round++ {
		for _, x := range []*Solver{s, ref} {
			incrementalRound(x, round)
		}
		if s.StatsSnapshot() != ref.StatsSnapshot() || s.NumClauses() != ref.NumClauses() {
			t.Fatalf("round %d: compacted solver %+v (%d clauses), reference %+v (%d clauses)",
				round, s.StatsSnapshot(), s.NumClauses(), ref.StatsSnapshot(), ref.NumClauses())
		}
		checkInvariants(t, ref)
		s.compact()
		checkInvariants(t, s)
		if s.wasted != 0 || len(s.arena) > len(ref.arena) {
			t.Fatalf("round %d: %d wasted words after compaction, arena %d words against %d uncompacted", round, s.wasted, len(s.arena), len(ref.arena))
		}
	}
	if s.StatsSnapshot().Conflicts == 0 {
		t.Fatal("the rounds hit no conflict: nothing learnt was ever relocated")
	}

	// Above level 0, with literals out of order on the trail: the deep-trail
	// instance behind a block of deleted clauses, and a learnt-clause limit
	// of 0, so that reduceDB runs after the first conflict. Every learnt
	// clause of the instance is the reason of a literal asserted at level 1
	// from the trail's far end, so reduceDB deletes none of them, finds the
	// dead block larger than half the live clauses and compacts: each
	// reason moves, and the search must still spend the pinned effort.
	deep := pinnedTraces[4]
	s = newSolver()
	for i := 0; i < 400; i++ {
		s.AddClause(MkLit(500, false), MkLit(Var(501+i), false), MkLit(Var(502+i), false))
		s.deleteClause(s.clauses[i])
	}
	s.maxLearnt = 0
	moved := false
	s.afterBacktrack = func(s *Solver) {
		outOfOrder := slices.ContainsFunc(s.trail, func(l Lit) bool {
			return s.reason[l.Var()] >= 0 && int(s.level[l.Var()]) < s.decisionLevel()-chronoThreshold
		})
		moved = moved || (outOfOrder && s.wasted == 0)
	}
	if got := deep.run(s); got != deep.res || s.StatsSnapshot() != deep.want {
		t.Fatalf("deep trail compacted inside the search: %v %+v, pinned %v %+v", got, s.StatsSnapshot(), deep.res, deep.want)
	}
	checkInvariants(t, s)
	if !moved || len(s.clauses) != s.NumClauses()+s.numLearnt {
		t.Fatalf("no compaction with an out-of-order reason on the trail (seen %v; the index lists %d clauses, %d are live)", moved, len(s.clauses), s.NumClauses()+s.numLearnt)
	}
}

// TestCompactionInsideSearch: reduceDB compacts above decision level 0,
// where the trail's reasons have to move with their clauses. Refuting the
// pigeonhole instance learns some thirty times the clauses it starts with
// and halves them over and over, so the run compacts many times — shown by
// a clause index (which only a compaction shortens) far shorter than the
// number of clauses ever attached — and still spends exactly the pinned
// effort.
func TestCompactionInsideSearch(t *testing.T) {
	s := New()
	pigeonhole(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want Unsat", got)
	}
	if got := s.StatsSnapshot(); got != pinnedTraces[0].want {
		t.Fatalf("search effort %+v, pinned %+v", got, pinnedTraces[0].want)
	}
	if len(s.clauses) > int(s.Learned())/2 {
		t.Fatalf("the index lists %d clauses of more than %d ever attached: the search never compacted", len(s.clauses), s.Learned())
	}
}

func TestMustCrefRefusesTaggedRange(t *testing.T) {
	if got := mustCref(maxCref); got != maxCref {
		t.Fatalf("mustCref(maxCref) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an offset with the binary-flag bit set became a clause reference")
		}
	}()
	mustCref(maxCref + 1)
}
