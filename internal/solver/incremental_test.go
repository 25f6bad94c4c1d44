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
// property: one solver answering a list of conditions, each checked as an
// assumption, answers every ordering of the list as fresh single-shot
// solvers do. A clause learnt during one check is a consequence of the
// asserted base alone, so it may speed a later check but never flip its
// verdict; a learnt clause that leaked a condition would show here.
func TestScopedChecksAdversarialOrdering(t *testing.T) {
	f := smt.NewFactory()
	base, conds := sliceFixture(f)

	// Reference verdicts from fresh, non-incremental solvers.
	want := make([]Result, len(conds))
	for i, c := range conds {
		fresh := New()
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
		s := New()
		for _, b := range base {
			s.Assert(b)
		}
		for step, ci := range order {
			res := s.Check(conds[ci])
			if res != want[ci] {
				t.Fatalf("order %d step %d: cond %d got %v, want %v (an earlier check's condition leaked?)",
					oi, step, ci, res, want[ci])
			}
			if res == Sat {
				// The model must satisfy the base and the assumed condition.
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
		}
	}
}

// TestIncrementalUnsatCoreUnpolluted: earlier checks' assumptions never
// show up in a later check's unsat core.
func TestIncrementalUnsatCoreUnpolluted(t *testing.T) {
	f := smt.NewFactory()
	s := New()
	x := f.BVVar("x", 8)
	s.Assert(f.Ult(x, f.BVConst64(5, 8)))
	// Burn a few checks first so earlier assumptions and learned clauses
	// are in play.
	for i := 0; i < 5; i++ {
		s.Check(f.Eq(x, f.BVConst64(int64(i), 8)))
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

// TestRecheckBlastsNothing: a condition is blasted once per solver. Asking
// it again — as Infer's rechecks ask every bug condition a shard has already
// decided — adds no variable and no clause, only search.
func TestRecheckBlastsNothing(t *testing.T) {
	f := smt.NewFactory()
	s := New()
	x := f.BVVar("x", 8)
	y := f.BVVar("y", 8)
	s.Assert(f.Eq(f.Add(x, y), f.BVConst64(77, 8)))
	var conds []*smt.Term
	for i := 0; i < 12; i++ {
		conds = append(conds, f.Eq(x, f.BVConst64(int64(i*17%256), 8)))
	}
	for _, c := range conds {
		s.Check(c)
	}
	vars, clauses, _, _ := s.Stats()
	for i, c := range conds {
		v0, c0 := s.sat.NumVars(), s.sat.NumClauses()
		s.Check(c)
		if dv, dc := s.sat.NumVars()-v0, s.sat.NumClauses()-c0; dv != 0 || dc != 0 {
			t.Fatalf("recheck %d grew the CNF by %d variables and %d clauses", i, dv, dc)
		}
	}
	if v, c, _, _ := s.Stats(); v != vars || c != clauses {
		t.Fatalf("rechecks moved the CNF from %d variables %d clauses to %d %d", vars, clauses, v, c)
	}
}
