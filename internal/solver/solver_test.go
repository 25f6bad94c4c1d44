package solver

import (
	"math/rand"
	"testing"

	"bf4/internal/smt"
)

func TestAssertCheckModel(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	a, b := f.BVVar("a", 8), f.BVVar("b", 8)
	s.Assert(f.Eq(f.Add(a, b), f.BVConst64(10, 8)))
	s.Assert(f.Ult(a, b))
	if res := s.Check(); res != Sat {
		t.Fatalf("got %v, want Sat", res)
	}
	m := s.Model()
	av, bv := m["a"].Int64(), m["b"].Int64()
	if (av+bv)%256 != 10 || av >= bv {
		t.Fatalf("model a=%d b=%d violates constraints", av, bv)
	}
	if !smt.EvalBool(f.Ult(a, b), s.ModelOf(f.Ult(a, b))) {
		t.Fatalf("model does not satisfy a < b")
	}
}

// TestModelOfIsModelRestricted: ModelOf holds exactly the variables of its
// terms that the solver has seen, with Model's values, so a term evaluates the
// same under either; a variable no formula mentioned is in neither.
func TestModelOfIsModelRestricted(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	a, b, c := f.BVVar("a", 8), f.BVVar("b", 8), f.BVVar("c", 8)
	p, q := f.BoolVar("p"), f.BoolVar("q")
	s.Assert(f.Eq(f.Add(a, b), f.BVConst64(10, 8)))
	s.Assert(f.Ult(a, b))
	s.Assert(f.Iff(p, f.Ugt(c, b)))
	if res := s.Check(p); res != Sat {
		t.Fatalf("got %v, want Sat", res)
	}
	full := s.Model()
	atoms := []*smt.Term{f.Ult(a, f.BVConst64(3, 8)), f.And(p, f.Eq(b, c)), q}
	part := s.ModelOf(atoms...)
	if len(part) != 4 { // a, b, c, p: not q, which the solver never saw
		t.Fatalf("ModelOf holds %d variables: %v", len(part), part)
	}
	for name, v := range part {
		if full[name] == nil || full[name].Cmp(v) != 0 {
			t.Errorf("%s = %v in ModelOf, %v in Model", name, v, full[name])
		}
	}
	for _, at := range atoms {
		if smt.EvalBool(at, part) != smt.EvalBool(at, full) {
			t.Errorf("%s evaluates differently under ModelOf and Model", at)
		}
	}
}

func TestCheckWithAssumptions(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 4)
	s.Assert(f.Ult(x, f.BVConst64(8, 4)))
	big := f.Ugt(x, f.BVConst64(9, 4))
	if res := s.Check(big); res != Unsat {
		t.Fatalf("x<8 && x>9: got %v", res)
	}
	// Assumptions don't stick.
	if res := s.Check(); res != Sat {
		t.Fatalf("after retracting assumption: got %v", res)
	}
	small := f.Ult(x, f.BVConst64(2, 4))
	if res := s.Check(small); res != Sat {
		t.Fatalf("x<2: got %v", res)
	}
	if v := s.Model()["x"].Int64(); v >= 2 {
		t.Fatalf("model x=%d, want <2", v)
	}
}

func TestUnsatCoreSubset(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	a1 := f.Ult(x, f.BVConst64(5, 8))  // x < 5
	a2 := f.Ugt(x, f.BVConst64(10, 8)) // x > 10 — conflicts with a1
	a3 := f.Eq(f.BVAnd(x, f.BVConst64(1, 8)), f.BVConst64(0, 8))
	if res := s.Check(a1, a2, a3); res != Unsat {
		t.Fatalf("got %v, want Unsat", res)
	}
	core := s.UnsatCore()
	has := map[*smt.Term]bool{}
	for _, c := range core {
		has[c] = true
	}
	if !has[a1] || !has[a2] {
		t.Fatalf("core %v must contain both conflicting assumptions", core)
	}
	// Core must itself be unsat.
	if res := s.Check(core...); res != Unsat {
		t.Fatalf("core re-check: got %v", res)
	}
}

func TestModelCoversAllSeenVars(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	a := f.BVVar("a", 8)
	p, q := f.BoolVar("p"), f.BoolVar("q")
	// Even unconstrained-after-solving variables must get model values.
	s.Assert(f.Or(p, q))
	s.Assert(f.Eq(a, f.BVConst64(42, 8)))
	if s.Check() != Sat {
		t.Fatal("want Sat")
	}
	m := s.Model()
	if m["a"] == nil || m["a"].Int64() != 42 {
		t.Fatalf("model missing or wrong a: %v", m["a"])
	}
	if m["p"] == nil || m["q"] == nil {
		t.Fatalf("model must assign p and q")
	}
	if m["p"].Sign() == 0 && m["q"].Sign() == 0 {
		t.Fatalf("model violates p || q")
	}
}

func TestIncrementalAccumulation(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	for i := 0; i < 8; i++ {
		s.Assert(f.Not(f.Eq(x, f.BVConst64(int64(i), 8))))
		if res := s.Check(); res != Sat {
			t.Fatalf("step %d: got %v", i, res)
		}
		if v := s.Model()["x"].Int64(); v < int64(i+1) {
			t.Fatalf("step %d: model x=%d excluded", i, v)
		}
	}
	s.Assert(f.Ult(x, f.BVConst64(8, 8)))
	if res := s.Check(); res != Unsat {
		t.Fatalf("excluded 0..7 and x<8: got %v", res)
	}
}

// TestInferShapedLoop mimics the Infer algorithm's solver usage: a direct
// solver enumerates models of BUG, a dual solver holds OK and is queried
// with assumption atoms, unsat cores drive generalization.
func TestInferShapedLoop(t *testing.T) {
	f := smt.NewFactory()
	// BUG: hit && !valid && mask != 0 ; OK: !hit || valid || mask == 0
	hit := f.BoolVar("hit")
	valid := f.BoolVar("valid")
	mask := f.BVVar("mask", 8)
	bug := f.And(hit, f.Not(valid), f.Not(f.Eq(mask, f.BVConst64(0, 8))))
	ok := f.Not(bug)

	direct := New(f)
	direct.Assert(bug)
	dual := New(f)
	dual.Assert(ok)

	atoms := []*smt.Term{hit, valid, f.Eq(mask, f.BVConst64(0, 8))}
	iterations := 0
	for direct.Check() == Sat {
		iterations++
		if iterations > 20 {
			t.Fatal("Infer-shaped loop did not converge")
		}
		m := direct.Model()
		var assumptions []*smt.Term
		for _, p := range atoms {
			if smt.EvalBool(p, m) {
				assumptions = append(assumptions, p)
			} else {
				assumptions = append(assumptions, f.Not(p))
			}
		}
		if dual.Check(assumptions...) == Unsat {
			core := dual.UnsatCore()
			direct.Assert(f.Not(f.And(core...)))
		} else {
			direct.Assert(f.Not(f.And(assumptions...)))
		}
	}
	// The loop must have blocked the entire BUG region.
	if direct.Check() != Unsat {
		t.Fatal("BUG region not exhausted")
	}
}

func TestRandomizedEquivalenceQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := smt.NewFactory()
	for iter := 0; iter < 20; iter++ {
		s := New(f)
		w := 4 + rng.Intn(5)
		x := f.BVVar("x", w)
		k := int64(rng.Intn(1 << w))
		// x + k - k == x is valid: its negation must be unsat.
		kc := f.BVConst64(k, w)
		s.Assert(f.Not(f.Eq(f.Sub(f.Add(x, kc), kc), x)))
		if res := s.Check(); res != Unsat {
			t.Fatalf("iter %d: got %v, want Unsat", iter, res)
		}
	}
}

func TestStatsAndChecks(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	s.Assert(f.Ult(x, f.BVConst64(100, 8)))
	s.Check()
	s.Check(f.Ugt(x, f.BVConst64(50, 8)))
	if s.checks != 2 {
		t.Fatalf("checks = %d, want 2", s.checks)
	}
	vars, clauses, _, props := s.Stats()
	if vars == 0 || clauses == 0 {
		t.Fatalf("stats look empty: vars=%d clauses=%d", vars, clauses)
	}
	_ = props
}

func BenchmarkIncrementalReachQueries(b *testing.B) {
	// Shape of bf4's bug reachability phase: one shared formula, many
	// assumption-only checks.
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 16)
	y := f.BVVar("y", 16)
	s.Assert(f.Eq(f.Add(x, y), f.BVConst64(5000, 16)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cond := f.Eq(x, f.BVConst64(int64(i%4096), 16))
		if s.Check(cond) != Sat {
			b.Fatal("want Sat")
		}
	}
}
