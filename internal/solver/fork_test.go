package solver

import (
	"sync"
	"testing"

	"bf4/internal/obs"
	"bf4/internal/smt"
)

// TestForkIsolation: forks of one warm base, each on its own goroutine,
// assert and learn different things; every fork answers like a solver
// built from scratch with the same assertions, and neither the base nor a
// sibling sees any of it. Run under -race: forking reads the base while
// other forks of it are already searching.
func TestForkIsolation(t *testing.T) {
	f := smt.NewFactory()
	basis, conds := sliceFixture(f)
	base := New()
	for _, b := range basis {
		base.Assert(b)
	}
	if res := base.Check(); res != Sat {
		t.Fatalf("base: got %v, want Sat", res)
	}
	vars, clauses, _, _ := base.Stats()
	checks := base.checks

	want := make([]Result, len(conds))
	for i, c := range conds {
		fresh := New()
		for _, b := range basis {
			fresh.Assert(b)
		}
		fresh.Assert(c)
		want[i] = fresh.Check()
	}

	got := make([]Result, len(conds))
	models := make([]smt.Env, len(conds))
	var wg sync.WaitGroup
	for i := range conds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := new(Solver).CopyFrom(base)
			s.Assert(conds[i])
			got[i] = s.Check()
			if got[i] == Sat {
				models[i] = s.Model()
			}
			// A second round on the same fork: its learnt clauses and its
			// assertion must still be its own.
			if again := s.Check(); again != got[i] {
				t.Errorf("fork %d: second check %v, first %v", i, again, got[i])
			}
		}(i)
	}
	wg.Wait()
	for i := range conds {
		if got[i] != want[i] {
			t.Errorf("fork %d: got %v, fresh solver says %v", i, got[i], want[i])
		}
		if got[i] != Sat {
			continue
		}
		for _, b := range append(basis[:len(basis):len(basis)], conds[i]) {
			if !smt.EvalBool(b, models[i]) {
				t.Errorf("fork %d: model violates %s", i, b)
			}
		}
	}
	if v, c, _, _ := base.Stats(); v != vars || c != clauses || base.checks != checks {
		t.Fatalf("base changed under its forks: %d vars %d clauses %d checks, was %d %d %d",
			v, c, base.checks, vars, clauses, checks)
	}
	// conds[0] (x > 150) contradicts the base; had it leaked, this is Unsat.
	if res := base.Check(); res != Sat {
		t.Fatalf("base after forks: got %v, want Sat", res)
	}
}

// TestAssertCountsAsBlastTime: lowering happens in Assert, so a solver
// that only asserts must still report time under the blast counter.
func TestAssertCountsAsBlastTime(t *testing.T) {
	f := smt.NewFactory()
	reg := obs.NewRegistry()
	s := New()
	s.SetObs(reg)
	x, y := f.BVVar("x", 32), f.BVVar("y", 32)
	s.Assert(f.Eq(f.Mul(x, y), f.BVConst64(391, 32)))
	if ns := reg.CounterValue("bf4_solver_blast_ns_total"); ns <= 0 {
		t.Fatalf("bf4_solver_blast_ns_total = %d after blasting a 32-bit multiplier in Assert, want > 0", ns)
	}
	if n := reg.CounterValue("bf4_solver_checks_total"); n != 0 {
		t.Fatalf("bf4_solver_checks_total = %d, want 0: the test must not Check", n)
	}
}
