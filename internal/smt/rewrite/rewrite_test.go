package rewrite_test

import (
	"math/rand"
	"testing"

	"bf4/internal/smt"
	"bf4/internal/smt/rewrite"
	"bf4/internal/smt/termgen"
)

// checkPreserves verifies that rt evaluates exactly like t under a batch
// of pseudo-random environments over t's variables (fixed seed, so the
// test is deterministic).
func checkPreserves(t *testing.T, tm, rt *smt.Term, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vars := tm.Vars(rt.Vars(nil))
	for trial := 0; trial < 32; trial++ {
		env := make(smt.Env, len(vars))
		for _, v := range vars {
			if v.Sort().IsBool() {
				env.SetBool(v.Name(), rng.Intn(2) == 1)
			} else {
				env.SetUint64(v.Name(), rng.Uint64())
			}
		}
		want, got := smt.Eval(tm, env), smt.Eval(rt, env)
		if want.Cmp(got) != 0 {
			t.Fatalf("rewrite changed evaluation: %v vs %v\noriginal  %s\nrewritten %s",
				want, got, tm, rt)
		}
	}
}

func TestDecidedFold(t *testing.T) {
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	// (x | 0xF0) >= 0x10 is decided true by the known-bits domain even
	// though neither side is constant.
	cond := f.Ule(f.BVConst64(0x10, 8), f.BVOr(x, f.BVConst64(0xF0, 8)))
	r := rewrite.New(f)
	if got := r.Rewrite(cond); !got.IsTrue() {
		t.Fatalf("want true, got %s", got)
	}
	if r.Stats().DecidedBool == 0 {
		t.Fatal("DecidedBool stat not incremented")
	}
}

func TestDecidedIte(t *testing.T) {
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	y := f.BVVar("y", 8)
	// Condition (x|1) != 0 is decided true, so the ite collapses to y.
	cond := f.Distinct(f.BVOr(x, f.BVConst64(1, 8)), f.BVConst64(0, 8))
	ite := f.Ite(cond, y, f.BVConst64(7, 8))
	r := rewrite.New(f)
	if got := r.Rewrite(ite); got != y {
		t.Fatalf("want y, got %s", got)
	}
}

func TestCarryFreeAdd(t *testing.T) {
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	// (x & 0x0F) + 0xA0 cannot carry: the operands occupy disjoint bits.
	lo := f.BVAnd(x, f.BVConst64(0x0F, 8))
	sum := f.Add(lo, f.BVConst64(0xA0, 8))
	r := rewrite.New(f)
	rt := r.Rewrite(sum)
	if r.Stats().CarryFreeAdd == 0 {
		t.Fatalf("CarryFreeAdd did not fire; got %s", rt)
	}
	checkPreserves(t, sum, rt, 1)
}

func TestBVAbsorb(t *testing.T) {
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	// (x & 0x0F) | 0xF0 keeps both operands, but
	// (x & 0x0F) & 0x0F absorbs the mask (it is 1 on every may-set bit)...
	lo := f.BVAnd(x, f.BVConst64(0x0F, 8))
	// ...except the factory may fold that itself; build a non-syntactic
	// case instead: (x&0x0F) | (x&0x0F | 0xF0) — the domain knows the
	// left side only sets bits the right side covers.
	r := rewrite.New(f)
	both := f.BVOr(lo, f.BVConst64(0xF0, 8))
	rt := r.Rewrite(f.BVAnd(both, f.BVConst64(0xFF, 8)))
	checkPreserves(t, both, rt, 2)
}

func TestExtractPushConcat(t *testing.T) {
	f := smt.NewFactory()
	a := f.BVVar("a", 8)
	b := f.BVVar("b", 8)
	cat := f.Concat(a, b) // a is the high half
	r := rewrite.New(f)
	if got := r.Rewrite(f.Extract(cat, 3, 0)); got != b && got != r.Rewrite(f.Extract(b, 3, 0)) {
		// low slice must not mention a
		for _, v := range got.Vars(nil) {
			if v == a {
				t.Fatalf("extract of low half still mentions high operand: %s", got)
			}
		}
	}
	hi := r.Rewrite(f.Extract(cat, 15, 8))
	if hi != a {
		t.Fatalf("extract of high half: want a, got %s", hi)
	}
	if r.Stats().ExtractPush == 0 {
		t.Fatal("ExtractPush stat not incremented")
	}
}

func TestExtractPushZExt(t *testing.T) {
	f := smt.NewFactory()
	a := f.BVVar("a", 8)
	z := f.ZExt(a, 16)
	r := rewrite.New(f)
	if got := r.Rewrite(f.Extract(z, 15, 8)); !got.IsConst() {
		t.Fatalf("extract of zero extension: want constant 0, got %s", got)
	}
	if got := r.Rewrite(f.Extract(z, 7, 0)); got != a {
		t.Fatalf("extract of operand: want a, got %s", got)
	}
}

func TestNarrowCmp(t *testing.T) {
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	y := f.BVVar("y", 8)
	// Both sides have their top 4 bits pinned to 1010; the comparison is
	// decided by the low 4 bits.
	a := f.BVOr(f.BVAnd(x, f.BVConst64(0x0F, 8)), f.BVConst64(0xA0, 8))
	b := f.BVOr(f.BVAnd(y, f.BVConst64(0x0F, 8)), f.BVConst64(0xA0, 8))
	for _, mk := range []func(_, _ *smt.Term) *smt.Term{f.Eq, f.Ult, f.Ule, f.Slt, f.Sle} {
		r := rewrite.New(f)
		cmp := mk(a, b)
		rt := r.Rewrite(cmp)
		if r.Stats().NarrowedCmp == 0 {
			t.Fatalf("NarrowedCmp did not fire on %s", cmp)
		}
		checkPreserves(t, cmp, rt, 3)
	}
}

func TestBoolAbsorption(t *testing.T) {
	f := smt.NewFactory()
	x := f.BoolVar("x")
	y := f.BoolVar("y")
	z := f.BoolVar("z")

	r := rewrite.New(f)
	// x ∧ (x ∨ y) = x
	if got := r.Rewrite(f.And(x, f.Or(x, y))); got != x {
		t.Fatalf("x∧(x∨y): want x, got %s", got)
	}
	// x ∨ (x ∧ y) = x
	if got := r.Rewrite(f.Or(x, f.And(x, y))); got != x {
		t.Fatalf("x∨(x∧y): want x, got %s", got)
	}
	// x ∧ (¬x ∨ y) = x ∧ y
	if got, want := r.Rewrite(f.And(x, f.Or(f.Not(x), y))), f.And(x, y); got != want {
		t.Fatalf("x∧(¬x∨y): want %s, got %s", want, got)
	}
	// x ∨ (¬x ∧ y ∧ z) = x ∨ (y ∧ z)
	if got, want := r.Rewrite(f.Or(x, f.And(f.Not(x), y, z))), f.Or(x, f.And(y, z)); got != want {
		t.Fatalf("x∨(¬x∧y∧z): want %s, got %s", want, got)
	}
	if r.Stats().BoolAbsorbed == 0 {
		t.Fatal("BoolAbsorbed stat not incremented")
	}
}

func TestFactorCommon(t *testing.T) {
	f := smt.NewFactory()
	a := f.BoolVar("a")
	b := f.BoolVar("b")
	x := f.BoolVar("x")
	y := f.BoolVar("y")
	z := f.BoolVar("z")

	r := rewrite.New(f)
	// (a∧b∧x) ∨ (a∧b∧y) ∨ (a∧b∧z) = a ∧ b ∧ (x∨y∨z)
	or := f.Or(f.And(a, b, x), f.And(a, b, y), f.And(a, b, z))
	got := r.Rewrite(or)
	want := f.And(a, b, f.Or(x, y, z))
	if got != want {
		t.Fatalf("factoring: want %s, got %s", want, got)
	}
	if r.Stats().Factored == 0 {
		t.Fatal("Factored stat not incremented")
	}
	checkPreserves(t, or, got, 4)

	// Dual: (a∨x) ∧ (a∨y) = a ∨ (x∧y)
	and := f.And(f.Or(a, x), f.Or(a, y))
	got = r.Rewrite(and)
	want = f.Or(a, f.And(x, y))
	if got != want {
		t.Fatalf("dual factoring: want %s, got %s", want, got)
	}
	checkPreserves(t, and, got, 5)
}

func TestFactorGuardNoGrowth(t *testing.T) {
	f := smt.NewFactory()
	a := f.BoolVar("a")
	x := f.BoolVar("x")
	y := f.BoolVar("y")
	z := f.BoolVar("z")
	w := f.BoolVar("w")
	// (a∧x∧y) ∨ (a∧z∧w): one shared conjunct across two 3-wide branches
	// does not shrink the circuit, so the guard must leave it alone.
	or := f.Or(f.And(a, x, y), f.And(a, z, w))
	r := rewrite.New(f)
	if got := r.Rewrite(or); got != or {
		t.Fatalf("guard failed: %s rewrote to %s", or, got)
	}
	if r.Stats().Factored != 0 {
		t.Fatal("Factored fired despite no-shrink guard")
	}
}

func TestIdempotent(t *testing.T) {
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	y := f.BVVar("y", 8)
	p := f.BoolVar("p")
	terms := []*smt.Term{
		f.And(p, f.Or(p, f.Eq(x, y))),
		f.Or(f.And(p, f.Ult(x, y)), f.And(p, f.Ule(y, x))),
		f.Add(f.BVAnd(x, f.BVConst64(0x0F, 8)), f.BVConst64(0x30, 8)),
		f.Extract(f.Concat(x, y), 11, 4),
	}
	r := rewrite.New(f)
	for _, tm := range terms {
		once := r.Rewrite(tm)
		if twice := r.Rewrite(once); twice != once {
			t.Fatalf("not idempotent: %s -> %s -> %s", tm, once, twice)
		}
		// And on a fresh rewriter (no memo carried over).
		r2 := rewrite.New(f)
		if twice := r2.Rewrite(once); twice != once {
			t.Fatalf("not idempotent across rewriters: %s -> %s", once, twice)
		}
	}
}

// FuzzRewrite is the differential soundness harness for the rewriter:
// random term DAGs from termgen must evaluate identically before and
// after rewriting under the generated environment, and rewriting must be
// idempotent. Seeds live in testdata/fuzz/FuzzRewrite.
func FuzzRewrite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 7, 9, 2, 0xff, 0x80, 5, 4, 1})
	f.Add([]byte("rewrite differential seed"))
	f.Add([]byte{2, 2, 4, 4, 8, 8, 0x10, 0x20, 0x40, 0x80, 1, 3, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		fac := smt.NewFactory()
		g := termgen.New(fac, data)
		tm := g.Term()
		env := g.Env()
		r := rewrite.New(fac)
		rt := r.Rewrite(tm)
		want, got := smt.Eval(tm, env), smt.Eval(rt, env)
		if want.Cmp(got) != 0 {
			t.Fatalf("rewrite changed evaluation: %v vs %v\noriginal  %s\nrewritten %s",
				want, got, tm, rt)
		}
		if again := r.Rewrite(rt); again != rt {
			t.Fatalf("not idempotent: %s -> %s", rt, again)
		}
	})
}
