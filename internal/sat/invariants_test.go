package sat

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// clauseWords is the number of arena words the clause with header h owns.
func clauseWords(h uint32) int { return int(1 + h>>sizeShift) }

// crefs walks the append-only arena: the references of every clause, in
// the order they were attached. It fails t if a header claims fewer than
// two literals or runs past the arena's end.
func crefs(t testing.TB, s *Solver) []int32 {
	t.Helper()
	var out []int32
	for cref := 0; cref < len(s.arena); cref += clauseWords(s.arena[cref]) {
		h := s.arena[cref]
		if n := h >> sizeShift; n < 2 || cref+clauseWords(h) > len(s.arena) {
			t.Fatalf("clause %d claims %d literal(s) in an arena of %d words", cref, n, len(s.arena))
		}
		out = append(out, int32(cref))
	}
	return out
}

// checkInvariants checks the bookkeeping that ties the append-only clause
// arena and the watch lists together: the arena is clauses back to back
// with no waste, the problem-clause counter matches them, every reason and
// every watcher names one of them, and each is watched exactly twice. It
// holds between calls on a solver not yet refuted (okState; a refuted one
// may keep an empty clause). The watch pool's bookkeeping it checks on any
// solver.
func checkInvariants(t testing.TB, s *Solver) {
	t.Helper()
	checkWatchPool(t, s)
	if !s.okState {
		return
	}
	if s.decisionLevel() != 0 {
		t.Fatalf("invariants checked at decision level %d", s.decisionLevel())
	}
	all := crefs(t, s)
	isClause := make(map[int32]bool, len(all))
	problem := 0
	for _, cref := range all {
		isClause[cref] = true
		if s.arena[cref]&learntBit == 0 {
			problem++
		}
	}
	if problem != s.NumClauses() {
		t.Fatalf("a walk finds %d problem clauses, the counter says %d", problem, s.NumClauses())
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 && !isClause[r] {
			t.Fatalf("%v has reason %d, which is no clause of the arena", l, r)
		}
	}
	// Every watcher belongs to a clause, on the list of the negation of one
	// of its first two literals, tagged exactly when the clause has two
	// literals (and then blocked by the other one).
	type watch struct {
		cref int32
		pos  int
	}
	seen := map[watch]int{}
	for p, wl := range s.watches {
		for _, w := range s.watchList(wl) {
			cref := w.cref()
			if !isClause[cref] {
				t.Fatalf("watch list of %v holds %d, which is no clause of the arena", Lit(p), cref)
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
	for _, cref := range all {
		for pos := 0; pos < 2; pos++ {
			if n := seen[watch{cref, pos}]; n != 1 {
				t.Fatalf("clause %d %v has %d watchers for literal %d, want 1", cref, s.litsOf(cref), n, pos)
			}
		}
	}
}

// checkWatchPool checks that the watch lists lie in the pool without
// overlap, each within its room, and that the slots no list owns (the
// rooms of moved lists) are fewer than those they do.
func checkWatchPool(t testing.TB, s *Solver) {
	t.Helper()
	if len(s.watches) != 2*len(s.assigns) {
		t.Fatalf("%d watch lists for %d variables", len(s.watches), len(s.assigns))
	}
	owner := make([]int, len(s.watchMem))
	live := 0
	for p, wl := range s.watches {
		if wl.n > wl.cap || int(wl.off+wl.cap) > len(s.watchMem) {
			t.Fatalf("watch list of %v: %d watchers, room %d at %d, in a pool of %d", Lit(p), wl.n, wl.cap, wl.off, len(s.watchMem))
		}
		for i := wl.off; i < wl.off+wl.cap; i++ {
			if owner[i] != 0 {
				t.Fatalf("pool slot %d is in the watch lists of %v and %v", i, Lit(owner[i]-1), Lit(p))
			}
			owner[i] = p + 1
		}
		live += int(wl.cap)
	}
	if dead := len(s.watchMem) - live; dead > 0 && dead >= live {
		t.Fatalf("%d of the watch pool's %d slots are in no watch list", dead, len(s.watchMem))
	}
}

// checkTrailInvariants checks, at any decision level, what analyze and
// cancelUntil rely on:
//
//   - each assigned variable is on the trail exactly once, true;
//   - levels never fall along the trail: a literal's level is the number of
//     levels opened at or before its position, so level i+1 is the stretch
//     from trail[trailLim[i]] on (empty for the dummy level of an
//     assumption that was already true);
//   - above level 0, a literal has no reason exactly when it opens its
//     level, as its decision;
//   - an implied literal's reason is a clause that holds it, whose
//     other literals are false and earlier on the trail, and the literal
//     sits at the highest of their levels.
func checkTrailInvariants(t testing.TB, s *Solver) {
	t.Helper()
	pos := make(map[Var]int, len(s.trail))
	level := 0
	for i, l := range s.trail {
		v := l.Var()
		if _, dup := pos[v]; dup {
			t.Fatalf("variable %d is on the trail twice", v)
		}
		pos[v] = i
		if s.value(l) != lTrue {
			t.Fatalf("trail literal %v is not true", l)
		}
		opens := false
		for level < len(s.trailLim) && int(s.trailLim[level]) <= i {
			level++
			opens = true
		}
		if int(s.level[v]) != level {
			t.Fatalf("%v at trail position %d has level %d, the trail puts it on level %d", l, i, s.level[v], level)
		}
		if level > 0 && opens != (s.reason[v] < 0) {
			t.Fatalf("%v on level %d: opens the level %v, reason %d", l, level, opens, s.reason[v])
		}
	}
	for v, a := range s.assigns {
		if _, onTrail := pos[Var(v)]; (a != lUndef) != onTrail {
			t.Fatalf("variable %d: assigned %v, on the trail %v", v, a != lUndef, onTrail)
		}
	}
	for i, l := range s.trail {
		r := s.reason[l.Var()]
		if r < 0 {
			continue
		}
		lits := s.litsOf(r)
		if !slices.Contains(lits, uint32(l)) {
			t.Fatalf("clause %d %v is the reason of %v, which it does not hold", r, lits, l)
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

// TestChronologicalPath re-runs the brute-force, model, assumption, core,
// incremental and clone suites on solvers that check the trail after every
// backtrack, so that none of them leaves it out of order.
// At threshold T the suites must also, at least once, backjump from a
// conflict down more than T levels to a level above 0: a jump whose
// asserting literal takes a level below the ones it leaves. Threshold 0
// counts every such jump, threshold 1 only those that skip a level.
func TestChronologicalPath(t *testing.T) {
	suites := []struct {
		name string
		run  func(*testing.T, func() *Solver)
	}{
		{"AgainstBruteForce", againstBruteForce},
		{"ModelSatisfiesClauses", modelSatisfiesClauses},
		{"Assumptions", solveUnderAssumptions},
		{"FailedAssumptionsCore", failedAssumptionsCore},
		{"CorePropertyRandom", corePropertyRandom},
		{"IncrementalAddAfterSolve", incrementalAddAfterSolve},
		{"CloneContinuesIdentically", clonesContinueIdentically},
	}
	for _, threshold := range []int{0, 1} {
		jumps := 0
		for _, suite := range suites {
			t.Run(fmt.Sprintf("threshold=%d/%s", threshold, suite.name), func(t *testing.T) {
				suite.run(t, func() *Solver {
					s := New()
					s.afterBacktrack = func(s *Solver, from int) {
						checkTrailInvariants(t, s)
						if to := s.decisionLevel(); to > 0 && from-to > threshold {
							jumps++
						}
					}
					return s
				})
			})
		}
		t.Logf("threshold %d: %d backjumps", threshold, jumps)
		if jumps == 0 {
			t.Errorf("threshold %d: the suites never backjumped more than %d level(s) to a level above 0", threshold, threshold)
		}
	}
}

// checkDerivedImplied checks, by enumeration over nVars variables, that
// every learnt clause of s and every level-0 fact follows from cnf:
// a learnt clause that does not is the first trace of a wrong resolution in
// analyze, long before it turns a verdict.
func checkDerivedImplied(t testing.TB, s *Solver, nVars int, cnf [][]Lit) {
	t.Helper()
	if !s.okState {
		return
	}
	var derived [][]Lit
	for _, cref := range crefs(t, s) {
		if s.arena[cref]&learntBit != 0 {
			var c []Lit
			for _, w := range s.litsOf(cref) {
				c = append(c, Lit(w))
			}
			derived = append(derived, c)
		}
	}
	for _, l := range s.trail {
		derived = append(derived, []Lit{l})
	}
	for _, c := range derived {
		refute := slices.Clone(cnf)
		for _, l := range c {
			refute = append(refute, []Lit{l.Neg()})
		}
		if bruteForce(nVars, refute) {
			t.Fatalf("derived clause %v does not follow from the problem clauses", c)
		}
	}
}

// checkCloneAgrees checks that c holds exactly the state s does.
func checkCloneAgrees(t testing.TB, s, c *Solver) {
	t.Helper()
	same := slices.Equal(s.arena, c.arena) &&
		slices.Equal(s.assigns, c.assigns) && slices.Equal(s.level, c.level) && slices.Equal(s.reason, c.reason) &&
		slices.Equal(s.polarity, c.polarity) && slices.Equal(s.activity, c.activity) && slices.Equal(s.trail, c.trail) &&
		slices.Equal(s.gate, c.gate) && slices.Equal(s.gateIn, c.gateIn) &&
		slices.Equal(s.just, c.just) && s.justHead == c.justHead && slices.Equal(s.needed, c.needed) &&
		slices.Equal(s.pend, c.pend) && slices.Equal(s.nodes, c.nodes) && slices.Equal(s.waiting, c.waiting) &&
		slices.Equal(s.reopened, c.reopened) && s.open == c.open && s.wakeHead == c.wakeHead &&
		slices.Equal(s.heap.heap, c.heap.heap) && slices.Equal(s.heap.indices, c.heap.indices) &&
		slices.Equal(s.cold.words, c.cold.words) && slices.Equal(s.cold.summary, c.cold.summary) &&
		s.NumClauses() == c.NumClauses() && s.StatsSnapshot() == c.StatsSnapshot() &&
		len(s.watches) == len(c.watches)
	for p := 0; same && p < len(s.watches); p++ {
		same = slices.Equal(s.watchList(s.watches[p]), c.watchList(c.watches[p]))
	}
	if !same {
		t.Fatal("clone differs from its original")
	}
	if len(s.arena) > 0 && &s.arena[0] == &c.arena[0] {
		t.Fatal("clone shares the original's arena")
	}
	if cap(s.watchMem) > 0 && cap(c.watchMem) > 0 && &s.watchMem[:1][0] == &c.watchMem[:1][0] {
		t.Fatal("clone shares the original's watch pool")
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

// TestPropagateMovesAListOutOfAFullPool: propagate walks a window on p's
// watch list while it moves watchers to other lists, and the first move
// out of a pool with no room grows the pool into a new array. The walk has
// to go on in the new array: two copies of one solver, one carved into a
// pool that is exactly full and one with CopyFrom's room, must keep their
// lists whole and search alike.
func TestPropagateMovesAListOutOfAFullPool(t *testing.T) {
	base := New()
	for _, cl := range random3SAT(5, 60, 255) {
		base.AddClause(cl...)
	}
	roomy := new(Solver).CopyFrom(base)
	full := new(Solver).CopyFrom(base)
	full.watchMem = full.watchMem[:len(full.watchMem):len(full.watchMem)]
	// CopyFrom leaves every list full, and the base holds no unit, so the
	// first watcher anything moves is moved by propagate, out of this pool.
	pool := &full.watchMem[0]
	rf, rr := full.Solve(), roomy.Solve()
	if &full.watchMem[0] == pool {
		t.Fatal("the full pool never grew: the case is not exercised")
	}
	checkInvariants(t, full)
	checkInvariants(t, roomy)
	if rf != rr || full.StatsSnapshot() != roomy.StatsSnapshot() {
		t.Fatalf("full pool: %v %+v; pool with room: %v %+v", rf, full.StatsSnapshot(), rr, roomy.StatsSnapshot())
	}
	if full.StatsSnapshot().Conflicts == 0 {
		t.Fatal("the solve hit no conflict: too easy to tell the two apart")
	}
}

// TestSolverStateHoldsNoPointers: the collector never scans the solver's
// arrays, so no slice field of Solver, nested ones included, may have an
// element type that holds a pointer, and no other field may hold one
// except the two named here.
func TestSolverStateHoldsNoPointers(t *testing.T) {
	allowed := map[string]bool{
		"heap.activity":  true, // the heap orders by the solver's own activity array
		"afterBacktrack": true, // a test hook, nil outside tests
	}
	if !holdsPointer(reflect.TypeOf([]watcher{})) || holdsPointer(reflect.TypeOf(wlist{})) {
		t.Fatal("holdsPointer misjudges a watch list")
	}
	slicesSeen := 0
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch {
		case typ.Kind() == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				name := f.Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, f.Type)
			}
		case typ.Kind() == reflect.Slice:
			slicesSeen++
			if holdsPointer(typ.Elem()) {
				t.Errorf("Solver.%s is a %v: its elements hold pointers", path, typ)
			}
		case holdsPointer(typ) && !allowed[path]:
			t.Errorf("Solver.%s is a %v, which holds a pointer", path, typ)
		}
	}
	walk("", reflect.TypeOf(Solver{}))
	if slicesSeen < 20 {
		t.Fatalf("the walk saw %d slice fields: it missed the solver's arrays", slicesSeen)
	}
}

// holdsPointer reports whether a value of type typ holds a pointer the
// collector has to follow.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.Slice:
		return true
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
