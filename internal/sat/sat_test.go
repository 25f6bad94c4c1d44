package sat

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// bruteForce determines satisfiability of a CNF over nVars variables by
// exhaustive enumeration. Used as a reference oracle in property tests.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for assign := 0; assign < 1<<nVars; assign++ {
		ok := true
		for _, cl := range cnf {
			clauseSat := false
			for _, l := range cl {
				val := assign&(1<<int(l.Var())) != 0
				if l.Sign() {
					val = !val
				}
				if val {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// solveCNF adds cnf to s and solves it.
func solveCNF(s *Solver, cnf [][]Lit) Result {
	for _, cl := range cnf {
		if !s.AddClause(cl...) {
			return Unsat
		}
	}
	return s.Solve()
}

func TestLitBasics(t *testing.T) {
	l := MkLit(3, false)
	if l.Var() != 3 || l.Sign() {
		t.Fatalf("MkLit(3,false) = %v", l)
	}
	n := l.Neg()
	if n.Var() != 3 || !n.Sign() {
		t.Fatalf("Neg() = %v", n)
	}
	if n.Neg() != l {
		t.Fatalf("double negation is not identity")
	}
	if l.String() != "4" || n.String() != "-4" {
		t.Fatalf("String() = %q, %q", l.String(), n.String())
	}
}

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty solver: got %v, want Sat", got)
	}
}

func TestUnitPropagation(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(b, true), MkLit(c, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	for _, v := range []Var{a, b, c} {
		if !s.Value(v) {
			t.Errorf("var %d: got false, want true", v)
		}
	}
}

func TestTrivialConflict(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if s.AddClause(MkLit(a, true)) {
		t.Fatalf("conflicting units: AddClause returned true")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want Unsat", got)
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Fatalf("tautology rejected")
	}
	if !s.AddClause(MkLit(b, false), MkLit(b, false)) {
		t.Fatalf("duplicate-literal clause rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	if !s.Value(b) {
		t.Fatalf("b must be true")
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons in n holes, classically unsat
// and exercises clause learning.
func pigeonhole(s *Solver, pigeons, holes int) {
	lit := func(p, h int) Lit { return MkLit(Var(p*holes+h), false) }
	for p := 0; p < pigeons; p++ {
		var cl []Lit
		for h := 0; h < holes; h++ {
			cl = append(cl, lit(p, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(lit(p1, h).Neg(), lit(p2, h).Neg())
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): got %v, want Sat", got)
	}
}

func TestModelSatisfiesClauses(t *testing.T) { modelSatisfiesClauses(t, New) }

func modelSatisfiesClauses(t *testing.T, fresh func() *Solver) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 1 + rng.Intn(40)
		var cnf [][]Lit
		for i := 0; i < nClauses; i++ {
			k := 1 + rng.Intn(3)
			var cl []Lit
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			cnf = append(cnf, cl)
		}
		s := fresh()
		res := solveCNF(s, cnf)
		if res != Sat {
			continue
		}
		for _, cl := range cnf {
			ok := false
			for _, l := range cl {
				if s.ValueLit(l) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
			}
		}
	}
}

// TestAgainstBruteForce: verdicts match enumeration, and so does everything
// the search derives on the way (checkDerivedImplied), with the trail
// checked after every backtrack. Half the instances mix clause lengths and
// mostly end without a conflict; the other half are random 3-SAT at the
// satisfiability threshold, where analyze and backjumping do the work.
func TestAgainstBruteForce(t *testing.T) { againstBruteForce(t, trailChecked(t)) }

// trailChecked returns a constructor of solvers that check the trail after
// every backtrack.
func trailChecked(t testing.TB) func() *Solver {
	return func() *Solver {
		s := New()
		s.afterBacktrack = func(s *Solver, _ int) { checkTrailInvariants(t, s) }
		return s
	}
}

func againstBruteForce(t *testing.T, fresh func() *Solver) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mixed := rng.Intn(2) == 0
		nVars, nClauses := 2+rng.Intn(8), rng.Intn(25)
		if !mixed {
			nVars = 8 + rng.Intn(4)
			nClauses = int(4.26 * float64(nVars))
		}
		var cnf [][]Lit
		for i := 0; i < nClauses; i++ {
			k := 3
			if mixed {
				k = 1 + rng.Intn(3)
			}
			var cl []Lit
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			cnf = append(cnf, cl)
		}
		s := fresh()
		res := solveCNF(s, cnf)
		checkInvariants(t, s)
		checkDerivedImplied(t, s, nVars, cnf)
		return (res == Sat) == bruteForce(nVars, cnf)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAssumptions(t *testing.T) { solveUnderAssumptions(t, New) }

func solveUnderAssumptions(t *testing.T, fresh func() *Solver) {
	s := fresh()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false)) // a -> b
	if got := s.Solve(MkLit(a, false)); got != Sat {
		t.Fatalf("assume a: got %v, want Sat", got)
	}
	if !s.Value(a) || !s.Value(b) {
		t.Fatalf("model must set a and b")
	}
	if got := s.Solve(MkLit(a, false), MkLit(b, true)); got != Unsat {
		t.Fatalf("assume a, !b: got %v, want Unsat", got)
	}
	// Solver remains usable and consistent after Unsat under assumptions.
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions after conflict: got %v, want Sat", got)
	}
}

func TestFailedAssumptionsCore(t *testing.T) { failedAssumptionsCore(t, New) }

func failedAssumptionsCore(t *testing.T, fresh func() *Solver) {
	s := fresh()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	// a & b -> false; c, d are irrelevant padding assumptions.
	s.AddClause(MkLit(a, true), MkLit(b, true))
	assumptions := []Lit{MkLit(c, false), MkLit(a, false), MkLit(d, false), MkLit(b, false)}
	if got := s.Solve(assumptions...); got != Unsat {
		t.Fatalf("got %v, want Unsat", got)
	}
	core := s.FailedAssumptions()
	inCore := map[Var]bool{}
	for _, l := range core {
		inCore[l.Var()] = true
	}
	if !inCore[a] || !inCore[b] {
		t.Fatalf("core %v must contain a and b", core)
	}
	if inCore[c] && inCore[d] {
		t.Errorf("core %v should not contain both irrelevant assumptions", core)
	}
	// The core itself must be unsatisfiable when re-assumed.
	var coreAssumptions []Lit
	coreAssumptions = append(coreAssumptions, core...)
	if got := s.Solve(coreAssumptions...); got != Unsat {
		t.Fatalf("re-solving the core: got %v, want Unsat", got)
	}
}

func TestCorePropertyRandom(t *testing.T) { corePropertyRandom(t, New) }

func corePropertyRandom(t *testing.T, fresh func() *Solver) {
	// Property: after Unsat under assumptions, the failed assumptions alone
	// are unsatisfiable with the clause set.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		s := fresh()
		nVars := 3 + rng.Intn(7)
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		nClauses := 3 + rng.Intn(20)
		for i := 0; i < nClauses; i++ {
			k := 1 + rng.Intn(3)
			var cl []Lit
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			s.AddClause(cl...)
		}
		var assumptions []Lit
		for v := 0; v < nVars; v++ {
			if rng.Intn(2) == 0 {
				assumptions = append(assumptions, MkLit(Var(v), rng.Intn(2) == 0))
			}
		}
		res := s.Solve(assumptions...)
		checkInvariants(t, s)
		if res != Unsat {
			continue
		}
		core := append([]Lit(nil), s.FailedAssumptions()...)
		if got := s.Solve(core...); got != Unsat {
			t.Fatalf("iter %d: core %v not unsat on its own", iter, core)
		}
		checkInvariants(t, s)
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) { incrementalAddAfterSolve(t, New) }

func incrementalAddAfterSolve(t *testing.T, fresh func() *Solver) {
	s := fresh()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if s.Solve() != Sat {
		t.Fatal("want Sat")
	}
	s.AddClause(MkLit(a, true))
	if s.Solve() != Sat {
		t.Fatal("want Sat after adding !a")
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("want a=false b=true, got a=%v b=%v", s.Value(a), s.Value(b))
	}
	s.AddClause(MkLit(b, true))
	if s.Solve() != Unsat {
		t.Fatal("want Unsat after adding !b")
	}
}

func TestNumVarsAndClauses(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if s.NumVars() != 2 {
		t.Fatalf("NumVars = %d, want 2", s.NumVars())
	}
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if s.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d, want 1", s.NumClauses())
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestHardRandom3SAT(t *testing.T) {
	// Random 3-SAT at ratio ~4.2 near the phase transition; verify against
	// brute force on small instances.
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 30; iter++ {
		nVars := 12
		nClauses := 50
		var cnf [][]Lit
		for i := 0; i < nClauses; i++ {
			var cl []Lit
			for j := 0; j < 3; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			cnf = append(cnf, cl)
		}
		res := solveCNF(New(), cnf)
		want := bruteForce(nVars, cnf)
		if (res == Sat) != want {
			t.Fatalf("iter %d: got %v, brute force says sat=%v", iter, res, want)
		}
	}
}

func BenchmarkSolvePigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("want Unsat")
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var cnf [][]Lit
	nVars := 100
	for i := 0; i < 420; i++ {
		var cl []Lit
		for j := 0; j < 3; j++ {
			cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		cnf = append(cnf, cl)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveCNF(New(), cnf)
	}
}

// TestCloneContinuesIdentically: a clone is the same solver, not merely an
// equivalent one — the same later calls give the same answers at the same
// search effort, because clauses, learnt clauses, activities, saved phases
// and heap order all came along.
func TestCloneContinuesIdentically(t *testing.T) { clonesContinueIdentically(t, New) }

func clonesContinueIdentically(t *testing.T, fresh func() *Solver) {
	for _, c := range copiers {
		t.Run(c.name, func(t *testing.T) { cloneContinuesIdentically(t, fresh, c.copy) })
	}
}

// copiers are the ways to a copy of a solver: CopyFrom into a new solver,
// or into a solver with a life behind it (dirtySolver) that has more
// variables and clauses than the original, or fewer.
var copiers = []struct {
	name string
	copy func(s *Solver) *Solver
}{
	{"clone", func(s *Solver) *Solver { return new(Solver).CopyFrom(s) }},
	{"into-larger", func(s *Solver) *Solver { return dirtySolver(600).CopyFrom(s) }},
	{"into-smaller", func(s *Solver) *Solver {
		// Two variables: a model, a core, then refuted by a unit.
		d := New()
		d.AddClause(MkLit(0, false), MkLit(1, false))
		d.AddClause(MkLit(0, true), MkLit(1, false))
		if d.Solve() != Sat || d.Solve(MkLit(1, true)) != Unsat || d.AddClause(MkLit(1, true)) {
			panic("into-smaller: the target is not dirty")
		}
		return d.CopyFrom(s)
	}},
}

func cloneContinuesIdentically(t *testing.T, fresh func() *Solver, copyOf func(*Solver) *Solver) {
	rng := rand.New(rand.NewSource(7))
	const nVars = 40
	s := fresh()
	for i := 0; i < 160; i++ {
		var cl []Lit
		for j := 0; j < 3; j++ {
			cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		s.AddClause(cl...)
	}
	s.Solve()
	if s.Conflicts() == 0 {
		t.Fatal("warm-up solve hit no conflict: the clone would carry no learnt state")
	}
	c := copyOf(s)
	checkInvariants(t, c)
	checkCloneAgrees(t, s, c)
	for round := 0; round < 20; round++ {
		var cl, assumptions []Lit
		for j := 0; j < 3; j++ {
			cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		for j := 0; j < 2; j++ {
			assumptions = append(assumptions, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		s.AddClause(cl...)
		c.AddClause(cl...)
		rs, rc := s.Solve(assumptions...), c.Solve(assumptions...)
		if rs != rc {
			t.Fatalf("round %d: original %v, clone %v", round, rs, rc)
		}
		checkInvariants(t, s)
		checkInvariants(t, c)
		if s.StatsSnapshot() != c.StatsSnapshot() {
			t.Fatalf("round %d: search effort diverged: original %+v, clone %+v", round, s.StatsSnapshot(), c.StatsSnapshot())
		}
		for v := Var(0); rs == Sat && v < nVars; v++ {
			if s.Value(v) != c.Value(v) {
				t.Fatalf("round %d: models differ at var %d", round, v)
			}
		}
	}
}

// TestCloneIsolated: clauses added to, and learnt by, a clone never show in
// the original or in a sibling clone.
func TestCloneIsolated(t *testing.T) {
	for _, c := range copiers {
		t.Run(c.name, func(t *testing.T) { cloneIsolated(t, c.copy) })
	}
}

func cloneIsolated(t *testing.T, copyOf func(*Solver) *Solver) {
	s := New()
	pigeonhole(s, 5, 5) // satisfiable
	if got := s.Solve(); got != Sat {
		t.Fatalf("base: got %v, want Sat", got)
	}
	vars, clauses, before := s.NumVars(), s.NumClauses(), s.StatsSnapshot()
	a, b := copyOf(s), copyOf(s)
	// a gets a sixth pigeon with nowhere to go; b pins pigeon 0 to hole 0.
	extra := Var(a.NumVars())
	var home []Lit
	for h := 0; h < 5; h++ {
		home = append(home, MkLit(extra+Var(h), false))
		for p := 0; p < 5; p++ {
			a.AddClause(MkLit(extra+Var(h), true), MkLit(Var(p*5+h), true))
		}
	}
	a.AddClause(home...)
	b.AddClause(MkLit(0, false))
	if got := a.Solve(); got != Unsat {
		t.Fatalf("clone a: got %v, want Unsat", got)
	}
	if got := b.Solve(); got != Sat || !b.Value(0) {
		t.Fatalf("clone b: got %v (var 0 = %v), want Sat with var 0 true", got, b.Value(0))
	}
	if s.NumVars() != vars || s.NumClauses() != clauses || s.StatsSnapshot() != before {
		t.Fatalf("original changed under its clones: %d vars %d clauses %+v, was %d %d %+v",
			s.NumVars(), s.NumClauses(), s.StatsSnapshot(), vars, clauses, before)
	}
	if got := s.Solve(MkLit(0, true)); got != Sat {
		t.Fatalf("original after clones: got %v under ¬var0, want Sat (b's unit leaked?)", got)
	}
}

// TestSetPhase: an unconstrained variable takes its saved phase in the
// model — false by default, true after SetPhase(v, true).
func TestSetPhase(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.SetPhase(b, true)
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("a=%v b=%v, want a=false (default phase) b=true (set phase)", s.Value(a), s.Value(b))
	}
}

// FuzzSolve drives small incremental sessions: the first byte picks how the
// solver of a session is come by (data[0]%3 is 0 for one session on a new
// solver, 1 for a second session after Reset of the first one's solver, 2
// for a second session after CopyFrom(New()) into it); a session is a CNF
// over at most 14 variables, then per round a few assumptions and a few
// more clauses. Every verdict must match brute force, every model satisfy
// clauses and assumptions, every core be a subset of the assumptions that
// is unsatisfiable on its own, every learnt clause follow from the
// clauses; arena and watch invariants hold after every call — the first
// Solve on a recycled solver included — and trail invariants after every
// backtrack. The last seed is random 3-SAT at the threshold, the one that
// reaches conflicts.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0, 5, 0x12, 0x35, 0x71, 0x24, 0x93, 0x58, 0x16, 0x47, 0x82, 0x39, 0x61, 0x75})
	f.Add([]byte{0, 14, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 253, 252, 251, 250, 17, 34, 51, 68, 85, 102})
	f.Add([]byte{0, 3, 1, 2, 3})
	f.Add([]byte{1, 6, 5, 0x12, 0x35, 0x71, 0x24, 0x93, 0x58, 0x16, 0x47, 0x82, 1, 4, 0, 2, 3, 0, 0, 0, 0, 9, 7, 0x21, 0x43, 0x65, 0x87, 0x19, 0x3b, 0x5d, 0x7f, 0x22, 0x46, 2, 5, 8})
	f.Add([]byte{2, 13, 3, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 30, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 253, 252, 251, 250, 17, 34, 51, 68, 85, 102})
	f.Add(threshold3SATSession(34))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		recycle := int(data[0]) % 3
		s := New()
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
				nVars = 2 + next()%13
			}
			s.afterBacktrack = func(s *Solver, _ int) { checkTrailInvariants(t, s) }
			fuzzSession(t, s, nVars, next, func() bool { return len(data) > 0 })
		}
	})
}

// threshold3SATSession is FuzzSolve input for one session on a new solver:
// 43 random three-literal clauses over 10 variables, then four rounds of
// two random assumptions each and no more clauses.
func threshold3SATSession(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	lit := func() byte { return byte(rng.Intn(256)) }
	data := []byte{0, 8, 39}
	for i := 0; i < 43; i++ {
		data = append(data, 2, lit(), lit(), lit())
	}
	for round := 0; round < 4; round++ {
		data = append(data, 2, lit(), lit(), 0)
	}
	return data
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
		checkDerivedImplied(t, s, nVars, cnf)
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
