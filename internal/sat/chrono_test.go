package sat

import (
	"fmt"
	"slices"
	"testing"
)

// newSolver builds the solvers of the suites in sat_test.go and
// inprocess_test.go. No unit instance is chronoThreshold levels deep, so
// under New they only show that the chronological machinery is inert;
// TestChronologicalPath swaps in a constructor that lowers the threshold.
var newSolver = New

// chronoSolver returns a solver that steps back one level whenever a
// backjump would cross more than threshold levels, and checks the trail
// invariants after every backtrack.
func chronoSolver(t testing.TB, threshold int) *Solver {
	s := New()
	s.chrono = threshold
	s.afterBacktrack = func(s *Solver) { checkTrailInvariants(t, s) }
	return s
}

// TestChronologicalPath re-runs the brute-force, model, assumption, core,
// incremental, budget, clone and inprocessing suites with the threshold at
// 0 (never backjump) and 1, where nearly every conflict leaves literals out
// of order on the trail.
func TestChronologicalPath(t *testing.T) {
	suites := []struct {
		name string
		run  func(*testing.T)
	}{
		{"AgainstBruteForce", TestAgainstBruteForce},
		{"ModelSatisfiesClauses", TestModelSatisfiesClauses},
		{"Assumptions", TestAssumptions},
		{"FailedAssumptionsCore", TestFailedAssumptionsCore},
		{"CorePropertyRandom", TestCorePropertyRandom},
		{"IncrementalAddAfterSolve", TestIncrementalAddAfterSolve},
		{"Budget", TestBudget},
		{"CloneContinuesIdentically", TestCloneContinuesIdentically},
		{"InprocessEquivalenceRandom", TestInprocessEquivalenceRandom},
		{"FuzzInprocessSeeds", func(t *testing.T) {
			for _, seed := range []int64{1, 42, 1 << 30} {
				inprocessTrial(t, seed)
			}
		}},
	}
	defer func() { newSolver = New }()
	for _, threshold := range []int{0, 1} {
		var made []*Solver
		for _, suite := range suites {
			t.Run(fmt.Sprintf("threshold=%d/%s", threshold, suite.name), func(t *testing.T) {
				newSolver = func() *Solver {
					made = append(made, chronoSolver(t, threshold))
					return made[len(made)-1]
				}
				suite.run(t)
			})
		}
		var st Stats
		for _, s := range made {
			st = st.Add(s.StatsSnapshot())
		}
		t.Logf("threshold %d: %+v", threshold, st)
		if st.ChronoBacktracks == 0 || st.ForcedLiterals == 0 {
			t.Errorf("threshold %d: the suites never left the in-order path: %+v", threshold, st)
		}
	}
}

// checkTrailInvariants checks, at any decision level, what search relies
// on once literals may stand on the trail below the level they were
// enqueued at:
//
//   - each assigned variable is on the trail exactly once, and no level
//     exceeds the decision level;
//   - level i+1 either starts, at trail[trailLim[i]], with its decision (a
//     literal of that level without a reason) or holds no literal at all
//     (the dummy level of an assumption that was already true);
//   - an implied literal is true, stands after the other literals of its
//     reason, which are all false, and has the highest of their levels;
//   - a reason is a live clause, and one of more than two literals holds
//     the literal it implies first (what reduceDB takes a reason by).
func checkTrailInvariants(t testing.TB, s *Solver) {
	t.Helper()
	pos := make(map[Var]int, len(s.trail))
	perLevel := make([]int, s.decisionLevel()+1)
	for i, l := range s.trail {
		v := l.Var()
		if _, dup := pos[v]; dup {
			t.Fatalf("variable %d is on the trail twice", v)
		}
		pos[v] = i
		if s.value(l) != lTrue {
			t.Fatalf("trail literal %v is not true", l)
		}
		if int(s.level[v]) > s.decisionLevel() {
			t.Fatalf("%v has level %d at decision level %d", l, s.level[v], s.decisionLevel())
		}
		perLevel[s.level[v]]++
	}
	for v, a := range s.assigns {
		if _, onTrail := pos[Var(v)]; (a != lUndef) != onTrail {
			t.Fatalf("variable %d: assigned %v, on the trail %v", v, a != lUndef, onTrail)
		}
	}
	for i, start := range s.trailLim {
		if perLevel[i+1] == 0 {
			continue
		}
		if int(start) >= len(s.trail) {
			t.Fatalf("level %d holds %d literal(s) and starts past the trail's end", i+1, perLevel[i+1])
		}
		if d := s.trail[start]; int(s.level[d.Var()]) != i+1 || s.reason[d.Var()] != -1 {
			t.Fatalf("level %d starts with %v of level %d, reason %d: not its decision", i+1, d, s.level[d.Var()], s.reason[d.Var()])
		}
	}
	for i, l := range s.trail {
		r := s.reason[l.Var()]
		if r < 0 {
			continue
		}
		if s.arena[r]&deletedBit != 0 {
			t.Fatalf("%v keeps deleted clause %d as its reason", l, r)
		}
		lits := s.litsOf(r)
		if !slices.Contains(lits, uint32(l)) || (len(lits) > 2 && lits[0] != uint32(l)) {
			t.Fatalf("clause %d %v is the reason of %v, which it does not hold (first, when over two literals)", r, lits, l)
		}
		top := int32(0)
		for _, w := range lits {
			q := Lit(w)
			if q == l {
				continue
			}
			if s.value(q) != lFalse || pos[q.Var()] > i {
				t.Fatalf("reason %d %v of %v: %v is not false earlier on the trail", r, lits, l, q)
			}
			top = max(top, s.level[q.Var()])
		}
		if s.level[l.Var()] != top {
			t.Fatalf("%v has level %d, the other literals of its reason %d %v reach level %d", l, s.level[l.Var()], r, lits, top)
		}
	}
}

// deepTrail builds the shape the chronological rule is for: conflicts far
// down the trail whose learnt clauses only reach back to its top. Variable
// 0 is decided first (with all activities equal the heap hands out variable
// 0 and then the rest from the last created down), the free unconstrained
// variables next, one level each, and the links of a chain last: link i is
//
//	h ∨ y[i] ∨ z[i]    h ∨ y[i] ∨ ¬z[i]    h ∨ ¬y[i] ∨ z[i]    with h = x ∨ ¬y[i+1]
//
// so whichever of y[i] and z[i] is decided first, false by default, ends in
// a conflict that learns h ∨ y[i] or h ∨ z[i]. Both literals of h are of
// level 1, x as the first decision and y[i+1] as what the previous link
// ended on, free levels below the conflict. Backjumping to level 1
// unassigns every free variable, and they are all decided again before the
// next link's turn comes. Stepping back one level instead asserts y[i] at
// level 1 from the far end of the trail, and one more clause per link makes
// that out-of-order literal imply another: ¬y[i] ∨ f ∨ w[i], over a free
// variable f decided midway, gives w[i] the level of f.
func deepTrail(s *Solver, free, links int) {
	x := MkLit(0, false)
	w := func(i int) Lit { return MkLit(Var(i), false) }
	y := func(i int) Lit { return MkLit(Var(links+2*i), false) }
	z := func(i int) Lit { return MkLit(Var(links+2*i-1), false) }
	f := func(k int) Lit { return MkLit(Var(3*links+1+k), false) }
	for i := 1; i <= links; i++ {
		h := []Lit{x}
		if i < links {
			h = append(h, y(i+1).Neg())
		}
		s.AddClause(append(slices.Clone(h), y(i), z(i))...)
		s.AddClause(append(slices.Clone(h), y(i), z(i).Neg())...)
		s.AddClause(append(slices.Clone(h), y(i).Neg(), z(i))...)
		s.AddClause(y(i).Neg(), f(free/2+i), w(i))
	}
	s.ensureVar(Var(3*links + free))
}

// TestDeepTrailKeepsAssignment: at the default threshold a conflict below
// thousands of decided levels costs a few decisions, not a second decision
// of every one of them. The same instance with the threshold out of reach,
// the backjump-always rule, shows what is saved: free × conflicts.
//
// Seeded fault, tried when this was written: enqueueing the asserting
// literal at the level search stepped back to, which keeps the trail in
// order, instead of at its backjump level. checkTrailInvariants reports it
// at the first backtrack ("121 has level 3001, the other literals of its
// reason reach level 1"); without the hook only 33 of the 40 conflicts are
// answered by a single step, and the verifier's switch@1 run needs 16 240
// conflicts where it needs 2 999.
func TestDeepTrailKeepsAssignment(t *testing.T) {
	const free, links = 3000, 40
	solve := func(threshold int) Stats {
		s := chronoSolver(t, threshold)
		deepTrail(s, free, links)
		if got := s.Solve(); got != Sat {
			t.Fatalf("threshold %d: got %v, want Sat", threshold, got)
		}
		checkInvariants(t, s)
		return s.StatsSnapshot()
	}
	got, backjump := solve(chronoThreshold), solve(1<<30)
	t.Logf("chronological %+v", got)
	t.Logf("backjump only %+v", backjump)
	if got.ChronoBacktracks < links {
		t.Errorf("%d single steps back over %d links: the instance misses the rule", got.ChronoBacktracks, links)
	}
	if got.Conflicts > 2*backjump.Conflicts {
		t.Errorf("%d conflicts, %d when backjumping", got.Conflicts, backjump.Conflicts)
	}
	vars := int64(1 + 3*links + free)
	if bound := 2 * (vars + got.Conflicts); got.Decisions > bound {
		t.Errorf("%d decisions for %d variables and %d conflicts, want at most %d", got.Decisions, vars, got.Conflicts, bound)
	}
	if backjump.Decisions < free*backjump.Conflicts/2 {
		t.Errorf("backjumping alone took %d decisions for %d free variables and %d conflicts: the instance no longer shows the re-completion this test guards against", backjump.Decisions, free, backjump.Conflicts)
	}
}

// FuzzSolve drives small incremental sessions at a fuzzed threshold: the
// first byte picks it and how the solver of a session is come by (the
// recycling byte: data[0]/3%3 is 0 for one session on a new solver, 1 for a
// second session after Reset of the first one's solver, 2 for a second
// session after CopyFrom(New()) into it); a session is a CNF over at most
// 14 variables, then per round a few assumptions and a few more clauses.
// Every verdict must match brute force, every model satisfy clauses and
// assumptions, every core be a subset of the assumptions that is
// unsatisfiable on its own; arena and watch invariants hold after every
// call — the first Solve on a recycled solver included — and trail
// invariants after every backtrack.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0, 5, 0x12, 0x35, 0x71, 0x24, 0x93, 0x58, 0x16, 0x47, 0x82, 0x39, 0x61, 0x75})
	f.Add([]byte{1, 14, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 253, 252, 251, 250, 17, 34, 51, 68, 85, 102})
	f.Add([]byte{2, 3, 1, 2, 3})
	f.Add([]byte{3, 6, 5, 0x12, 0x35, 0x71, 0x24, 0x93, 0x58, 0x16, 0x47, 0x82, 1, 4, 0, 2, 3, 0, 0, 0, 0, 9, 7, 0x21, 0x43, 0x65, 0x87, 0x19, 0x3b, 0x5d, 0x7f, 0x22, 0x46, 2, 5, 8})
	f.Add([]byte{8, 13, 3, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 30, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 253, 252, 251, 250, 17, 34, 51, 68, 85, 102})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		threshold := []int{0, 1, chronoThreshold}[int(data[0])%3]
		recycle := int(data[0]) / 3 % 3
		s := chronoSolver(t, threshold)
		nVars := 2 + int(data[1])%13
		data = data[2:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for session := 0; session < 2; session++ {
			if session == 1 {
				switch recycle {
				case 0:
					return
				case 1:
					s.Reset()
				case 2:
					s.CopyFrom(New())
				}
				s.chrono = threshold
				s.afterBacktrack = func(s *Solver) { checkTrailInvariants(t, s) }
				nVars = 2 + next()%13
			}
			fuzzSession(t, s, nVars, next, func() bool { return len(data) > 0 })
		}
	})
}

// fuzzSession is one session of FuzzSolve on s, which is empty.
func fuzzSession(t *testing.T, s *Solver, nVars int, next func() int, more func() bool) {
	lit := func() Lit { b := next(); return MkLit(Var(b>>1%nVars), b&1 == 1) }
	var cnf [][]Lit
	addClauses := func(n int) {
		for ; n > 0 && more(); n-- {
			cl := make([]Lit, 1+next()%3)
			for i := range cl {
				cl[i] = lit()
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
	}
	unit := func(l Lit) []Lit { return []Lit{l} }
	addClauses(4 + next()%40)
	for round := 0; round < 4; round++ {
		assumptions := make([]Lit, next()%4)
		for i := range assumptions {
			assumptions[i] = lit()
		}
		withAssumptions := slices.Clone(cnf)
		for _, a := range assumptions {
			withAssumptions = append(withAssumptions, unit(a))
		}
		res := s.Solve(assumptions...)
		checkInvariants(t, s)
		if want := bruteForce(nVars, withAssumptions); (res == Sat) != want || res == Unknown {
			t.Fatalf("round %d: got %v under %v, brute force says sat=%v", round, res, assumptions, want)
		}
		if res == Sat {
			for _, cl := range withAssumptions {
				if !slices.ContainsFunc(cl, s.ValueLit) {
					t.Fatalf("round %d: model violates %v (assumptions %v)", round, cl, assumptions)
				}
			}
		} else {
			core := slices.Clone(s.FailedAssumptions())
			withCore := slices.Clone(cnf)
			for _, a := range core {
				if !slices.Contains(assumptions, a) {
					t.Fatalf("round %d: core %v is not a subset of the assumptions %v", round, core, assumptions)
				}
				withCore = append(withCore, unit(a))
			}
			if bruteForce(nVars, withCore) {
				t.Fatalf("round %d: core %v of %v is satisfiable", round, core, assumptions)
			}
		}
		addClauses(next() % 4)
	}
}
