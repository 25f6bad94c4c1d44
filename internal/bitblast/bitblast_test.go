package bitblast

import (
	"math/big"
	"math/rand"
	"testing"

	"bf4/internal/sat"
	"bf4/internal/smt"
)

// fixVar pins every bit of a blasted variable to the given value.
func fixVar(c *Context, v *smt.Term, val *big.Int) {
	if v.Sort().IsBool() {
		l := c.Literal(v)
		if val.Sign() != 0 {
			c.Solver().AddClause(l)
		} else {
			c.Solver().AddClause(l.Neg())
		}
		return
	}
	for i, l := range c.Bits(v) {
		if val.Bit(i) == 1 {
			c.Solver().AddClause(l)
		} else {
			c.Solver().AddClause(l.Neg())
		}
	}
}

// TestCircuitsMatchEval is the central property test: for random terms and
// random concrete inputs, the blasted circuit computes exactly what
// smt.Eval computes.
func TestCircuitsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const w = 6
	for iter := 0; iter < 400; iter++ {
		f := smt.NewFactory()
		a, b := f.BVVar("a", w), f.BVVar("b", w)

		var term *smt.Term
		switch iter % 14 {
		case 0:
			term = f.Add(a, b)
		case 1:
			term = f.Sub(a, b)
		case 2:
			term = f.Mul(a, b)
		case 3:
			term = f.Neg(a)
		case 4:
			term = f.BVAnd(a, b)
		case 5:
			term = f.BVOr(a, b)
		case 6:
			term = f.BVXor(a, b)
		case 7:
			term = f.BVNot(a)
		case 8:
			term = f.Shl(a, b)
		case 9:
			term = f.Lshr(a, b)
		case 10:
			term = f.Ashr(a, b)
		case 11:
			term = f.Concat(f.Extract(a, 3, 1), b)
		case 12:
			term = f.Ite(f.Ult(a, b), f.Add(a, b), f.Sub(a, b))
		case 13:
			term = f.SExt(f.Extract(a, 2, 0), w)
		}

		solver := sat.New()
		c := New(f, solver)
		bits := c.Bits(term)
		av := new(big.Int).SetUint64(rng.Uint64() & (1<<w - 1))
		bv := new(big.Int).SetUint64(rng.Uint64() & (1<<w - 1))
		fixVar(c, a, av)
		fixVar(c, b, bv)
		if res := solver.Solve(); res != sat.Sat {
			t.Fatalf("iter %d: fixed-input circuit unsat for %s", iter, term)
		}
		got := new(big.Int)
		for i, l := range bits {
			if solver.ValueLit(l) {
				got.SetBit(got, i, 1)
			}
		}
		env := smt.Env{"a": av, "b": bv}
		want := smt.Eval(term, env)
		if got.Cmp(want) != 0 {
			t.Fatalf("iter %d: %s with a=%v b=%v: circuit %v, eval %v", iter, term, av, bv, got, want)
		}
	}
}

func TestBooleanPredicatesMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const w = 5
	for iter := 0; iter < 300; iter++ {
		f := smt.NewFactory()
		a, b := f.BVVar("a", w), f.BVVar("b", w)
		p := f.BoolVar("p")

		var term *smt.Term
		switch iter % 8 {
		case 0:
			term = f.Ult(a, b)
		case 1:
			term = f.Ule(a, b)
		case 2:
			term = f.Slt(a, b)
		case 3:
			term = f.Sle(a, b)
		case 4:
			term = f.Eq(a, b)
		case 5:
			term = f.And(p, f.Ult(a, b))
		case 6:
			term = f.Or(f.Not(p), f.Eq(f.Add(a, b), f.BVConst64(7, w)))
		case 7:
			term = f.Xor(p, f.Slt(f.Sub(a, b), f.BVConst64(0, w)))
		}

		solver := sat.New()
		c := New(f, solver)
		lit := c.Literal(term)
		av := new(big.Int).SetUint64(rng.Uint64() & (1<<w - 1))
		bv := new(big.Int).SetUint64(rng.Uint64() & (1<<w - 1))
		pv := big.NewInt(int64(rng.Intn(2)))
		fixVar(c, a, av)
		fixVar(c, b, bv)
		fixVar(c, p, pv)
		if res := solver.Solve(); res != sat.Sat {
			t.Fatalf("iter %d: fixed-input circuit unsat", iter)
		}
		got := solver.ValueLit(lit)
		want := smt.EvalBool(term, smt.Env{"a": av, "b": bv, "p": pv})
		if got != want {
			t.Fatalf("iter %d: %s with a=%v b=%v p=%v: circuit %v, eval %v", iter, term, av, bv, pv, got, want)
		}
	}
}

// TestModelSoundness: any model the solver returns for an asserted formula
// must actually satisfy the formula under reference evaluation.
func TestModelSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const w = 8
	for iter := 0; iter < 100; iter++ {
		f := smt.NewFactory()
		a, b, x := f.BVVar("a", w), f.BVVar("b", w), f.BVVar("x", w)
		k := f.BVConst64(int64(rng.Intn(256)), w)
		phi := f.And(
			f.Eq(f.Add(a, b), x),
			f.Ult(a, k),
			f.Not(f.Eq(b, f.BVConst64(0, w))),
		)
		solver := sat.New()
		c := New(f, solver)
		c.AssertTrue(phi)
		// Ensure variables are blasted for model extraction.
		c.Bits(a)
		c.Bits(b)
		c.Bits(x)
		res := solver.Solve()
		if k.Const().Sign() == 0 {
			if res != sat.Unsat {
				t.Fatalf("iter %d: a < 0 must be unsat", iter)
			}
			continue
		}
		if res != sat.Sat {
			t.Fatalf("iter %d: expected sat", iter)
		}
		env := smt.Env{
			"a": c.ModelBV(a),
			"b": c.ModelBV(b),
			"x": c.ModelBV(x),
		}
		if !smt.EvalBool(phi, env) {
			t.Fatalf("iter %d: model %v does not satisfy %s", iter, env, phi)
		}
	}
}

func TestValidities(t *testing.T) {
	const w = 8
	cases := []struct {
		name string
		mk   func(f *smt.Factory, a, b *smt.Term) *smt.Term
	}{
		{"add-comm", func(f *smt.Factory, a, b *smt.Term) *smt.Term {
			return f.Eq(f.Add(a, b), f.Add(b, a))
		}},
		{"sub-add-inverse", func(f *smt.Factory, a, b *smt.Term) *smt.Term {
			return f.Eq(f.Add(f.Sub(a, b), b), a)
		}},
		{"demorgan", func(f *smt.Factory, a, b *smt.Term) *smt.Term {
			return f.Eq(f.BVNot(f.BVAnd(a, b)), f.BVOr(f.BVNot(a), f.BVNot(b)))
		}},
		{"neg-is-sub-zero", func(f *smt.Factory, a, b *smt.Term) *smt.Term {
			return f.Eq(f.Neg(a), f.Sub(f.BVConst64(0, w), a))
		}},
		{"ult-total", func(f *smt.Factory, a, b *smt.Term) *smt.Term {
			return f.Or(f.Ult(a, b), f.Ult(b, a), f.Eq(a, b))
		}},
		{"mul-by-two-is-shl", func(f *smt.Factory, a, b *smt.Term) *smt.Term {
			return f.Eq(f.Mul(a, f.BVConst64(2, w)), f.Shl(a, f.BVConst64(1, w)))
		}},
		{"slt-vs-ult-same-sign", func(f *smt.Factory, a, b *smt.Term) *smt.Term {
			sameSign := f.Eq(f.Extract(a, w-1, w-1), f.Extract(b, w-1, w-1))
			return f.Implies(sameSign, f.Eq(f.Bool(true), f.Iff(f.Slt(a, b), f.Ult(a, b))))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := smt.NewFactory()
			a, b := f.BVVar("a", w), f.BVVar("b", w)
			valid := tc.mk(f, a, b)
			solver := sat.New()
			c := New(f, solver)
			c.AssertTrue(f.Not(valid))
			if res := solver.Solve(); res != sat.Unsat {
				env := smt.Env{"a": c.ModelBV(a), "b": c.ModelBV(b)}
				t.Fatalf("counterexample to validity: %v", env)
			}
		})
	}
}

func TestIncrementalSolvingWithAssumptions(t *testing.T) {
	f := smt.NewFactory()
	a := f.BVVar("a", 8)
	solver := sat.New()
	c := New(f, solver)
	c.AssertTrue(f.Ult(a, f.BVConst64(10, 8)))
	c.Bits(a)

	assumeBig := c.Literal(f.Ugt(a, f.BVConst64(5, 8)))
	assumeSmall := c.Literal(f.Ult(a, f.BVConst64(3, 8)))

	if res := solver.Solve(assumeBig); res != sat.Sat {
		t.Fatalf("a in (5,10): got %v", res)
	}
	v := c.ModelBV(a).Int64()
	if v <= 5 || v >= 10 {
		t.Fatalf("model a=%d out of range (5,10)", v)
	}
	if res := solver.Solve(assumeBig, assumeSmall); res != sat.Unsat {
		t.Fatalf("contradictory assumptions: got %v", res)
	}
	if res := solver.Solve(assumeSmall); res != sat.Sat {
		t.Fatalf("a < 3: got %v", res)
	}
}

func TestWidthOneVectors(t *testing.T) {
	f := smt.NewFactory()
	a, b := f.BVVar("a", 1), f.BVVar("b", 1)
	solver := sat.New()
	c := New(f, solver)
	// a + b wraps at width 1: 1 + 1 = 0.
	c.AssertTrue(f.Eq(a, f.BVConst64(1, 1)))
	c.AssertTrue(f.Eq(b, f.BVConst64(1, 1)))
	sum := f.Add(a, b)
	c.AssertTrue(f.Eq(sum, f.BVConst64(0, 1)))
	if res := solver.Solve(); res != sat.Sat {
		t.Fatalf("1+1=0 at width 1: got %v", res)
	}
	// Shifting a 1-bit vector by 1 yields zero.
	solver2 := sat.New()
	c2 := New(f, solver2)
	c2.AssertTrue(f.Eq(f.Shl(a, b), f.BVConst64(1, 1)))
	c2.AssertTrue(f.Eq(a, f.BVConst64(1, 1)))
	c2.AssertTrue(f.Eq(b, f.BVConst64(1, 1)))
	if res := solver2.Solve(); res != sat.Unsat {
		t.Fatalf("1<<1 must be 0 at width 1: got %v", res)
	}
}

func TestSharedSubtermsBlastedOnce(t *testing.T) {
	f := smt.NewFactory()
	a, b := f.BVVar("a", 16), f.BVVar("b", 16)
	sum := f.Add(a, b)
	solver := sat.New()
	c := New(f, solver)
	c.AssertTrue(f.Eq(sum, f.BVConst64(100, 16)))
	n1 := solver.NumVars()
	// Re-asserting a formula over the same shared subterm must not re-blast
	// the adder.
	c.AssertTrue(f.Ult(sum, f.BVConst64(200, 16)))
	n2 := solver.NumVars()
	if n2-n1 > 40 {
		t.Fatalf("re-use of shared subterm created %d new vars", n2-n1)
	}
	if res := solver.Solve(); res != sat.Sat {
		t.Fatalf("got %v", res)
	}
}

func BenchmarkBlastAdd32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := smt.NewFactory()
		x, y := f.BVVar("x", 32), f.BVVar("y", 32)
		solver := sat.New()
		c := New(f, solver)
		c.AssertTrue(f.Eq(f.Add(x, y), f.BVConst64(12345, 32)))
		solver.Solve()
	}
}

func BenchmarkSolveMulFactor(b *testing.B) {
	// Find factors of a small product: classic nontrivial circuit query.
	for i := 0; i < b.N; i++ {
		f := smt.NewFactory()
		x, y := f.BVVar("x", 12), f.BVVar("y", 12)
		solver := sat.New()
		c := New(f, solver)
		c.AssertTrue(f.Eq(f.Mul(x, y), f.BVConst64(1517, 12))) // 37*41
		c.AssertTrue(f.Ugt(x, f.BVConst64(1, 12)))
		c.AssertTrue(f.Ugt(y, f.BVConst64(1, 12)))
		if solver.Solve() != sat.Sat {
			b.Fatal("factoring query must be sat")
		}
	}
}
