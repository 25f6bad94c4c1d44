package solver

import (
	"testing"

	"bf4/internal/smt"
)

// sliceFixture builds a shared "slice" constraint set and a list of
// bug-condition-like probes over it.
func sliceFixture(f *smt.Factory) (base, conds []*smt.Term) {
	x := f.BVVar("x", 8)
	y := f.BVVar("y", 8)
	z := f.BVVar("z", 8)
	base = []*smt.Term{
		f.Ult(x, f.BVConst64(100, 8)),
		f.Eq(f.Add(x, y), f.BVConst64(50, 8)),
		f.Eq(z, f.BVAnd(x, f.BVConst64(0x0f, 8))),
	}
	conds = []*smt.Term{
		f.Ugt(x, f.BVConst64(150, 8)),
		f.Eq(x, f.BVConst64(20, 8)),
		f.And(f.Eq(x, f.BVConst64(20, 8)), f.Eq(y, f.BVConst64(99, 8))),
		f.Eq(y, f.BVConst64(30, 8)),
		f.Ugt(z, f.BVConst64(20, 8)),
		f.And(f.Ult(y, f.BVConst64(255, 8)), f.Eq(z, f.BVConst64(7, 8))),
	}
	return base, conds
}

// TestScopedChecksAdversarialOrdering pins the core incremental-soundness
// property: clauses learned under a retracted scope must never flip a
// later check's verdict, for any ordering of the checks on one slice.
// Every verdict is compared against a fresh single-shot solver; retract
// cleans the clause database at every boundary.
func TestScopedChecksAdversarialOrdering(t *testing.T) {
	f := smt.NewFactory()
	base, conds := sliceFixture(f)

	// Reference verdicts from fresh, non-incremental solvers.
	want := make([]Result, len(conds))
	for i, c := range conds {
		fresh := New(f)
		for _, b := range base {
			fresh.Assert(b)
		}
		want[i] = fresh.Check(c)
	}

	orders := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{2, 0, 5, 1, 4, 3},
		{1, 1, 0, 0, 2, 2, 5, 3, 4}, // repeated checks must stay stable
	}
	for oi, order := range orders {
		s := New(f)
		for _, b := range base {
			s.Assert(b)
		}
		for step, ci := range order {
			res := s.checkIn(conds[ci])
			if res != want[ci] {
				t.Fatalf("order %d step %d: cond %d got %v, want %v (learned-clause leak across retracted scopes?)",
					oi, step, ci, res, want[ci])
			}
			if res == Sat {
				// The model must satisfy the base and the scoped condition.
				m := s.Model()
				for _, b := range base {
					if !smt.EvalBool(b, m) {
						t.Fatalf("order %d step %d: model violates base %s", oi, step, b)
					}
				}
				if !smt.EvalBool(conds[ci], m) {
					t.Fatalf("order %d step %d: model violates cond %s", oi, step, conds[ci])
				}
			}
			s.retract()
		}
	}
}

// TestCheckScopedMatchesCheck: the exported scoped entry point answers like
// an assumption-based Check on a solver that never opened a scope, hands
// back a model of base ∧ cond exactly when the answer is Sat, and closes
// its scope before returning.
func TestCheckScopedMatchesCheck(t *testing.T) {
	f := smt.NewFactory()
	base, conds := sliceFixture(f)
	scoped, plain := New(f), New(f)
	for _, b := range base {
		scoped.Assert(b)
		plain.Assert(b)
	}
	for i, c := range conds {
		res, model := scoped.CheckScoped(c)
		if want := plain.Check(c); res != want {
			t.Fatalf("cond %d: CheckScoped %v, Check %v", i, res, want)
		}
		if (model != nil) != (res == Sat) {
			t.Fatalf("cond %d: result %v with model %v", i, res, model)
		}
		for _, b := range append([]*smt.Term{c}, base...) {
			if res == Sat && !smt.EvalBool(b, model) {
				t.Fatalf("cond %d: returned model violates %s", i, b)
			}
		}
		if n := len(scoped.scopes); n != 0 {
			t.Fatalf("cond %d: CheckScoped left %d scopes open", i, n)
		}
	}
}

// TestIncrementalUnsatCoreUnpolluted: scoped checks must not leak
// activation literals into caller-visible unsat cores.
func TestIncrementalUnsatCoreUnpolluted(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	s.Assert(f.Ult(x, f.BVConst64(5, 8)))
	// Burn a few scoped checks first so retracted activation literals and
	// learned clauses are in play.
	for i := 0; i < 5; i++ {
		s.checkIn(f.Eq(x, f.BVConst64(int64(i), 8)))
		s.retract()
	}
	a := f.Ugt(x, f.BVConst64(10, 8))
	if res := s.Check(a); res != Unsat {
		t.Fatalf("got %v, want Unsat", res)
	}
	core := s.UnsatCore()
	if len(core) != 1 || core[0] != a {
		t.Fatalf("core %v, want exactly the caller's assumption", core)
	}
}

// TestIncrementalStatsShrink: retract's level-0 cleaning must shrink the
// clause database after every scope — the guard clauses of a retracted
// scope are deleted, not left behind satisfied.
func TestIncrementalStatsShrink(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	y := f.BVVar("y", 8)
	s.Assert(f.Eq(f.Add(x, y), f.BVConst64(77, 8)))
	for i := 0; i < 12; i++ {
		s.checkIn(f.Eq(x, f.BVConst64(int64(i*17%256), 8)))
		_, inside, _, _ := s.Stats()
		s.retract()
		_, after, _, _ := s.Stats()
		if after >= inside {
			t.Fatalf("scope %d: clause DB did not shrink on retract: %d inside, %d after", i, inside, after)
		}
	}
}
