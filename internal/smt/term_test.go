package smt

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

func TestHashConsing(t *testing.T) {
	f := NewFactory()
	a := f.BVVar("a", 8)
	b := f.BVVar("b", 8)
	x := f.Add(a, b)
	y := f.Add(a, b)
	if x != y {
		t.Fatalf("equal terms are not pointer-equal")
	}
	if f.BVVar("a", 8) != a {
		t.Fatalf("variable not interned")
	}
	if f.BVVar("a", 16) == a {
		t.Fatalf("same name, different width must differ")
	}
}

func TestCommutativeNormalization(t *testing.T) {
	f := NewFactory()
	a, b := f.BVVar("a", 8), f.BVVar("b", 8)
	if f.Add(a, b) != f.Add(b, a) {
		t.Errorf("add not commutatively normalized")
	}
	if f.BVAnd(a, b) != f.BVAnd(b, a) {
		t.Errorf("bvand not commutatively normalized")
	}
	p, q := f.BoolVar("p"), f.BoolVar("q")
	if f.And(p, q) != f.And(q, p) {
		t.Errorf("and not commutatively normalized")
	}
	if f.Sub(a, b) == f.Sub(b, a) {
		t.Errorf("sub must not commute")
	}
}

func TestBoolSimplifications(t *testing.T) {
	f := NewFactory()
	p, q := f.BoolVar("p"), f.BoolVar("q")
	cases := []struct {
		got, want *Term
		name      string
	}{
		{f.And(), f.True(), "empty and"},
		{f.Or(), f.False(), "empty or"},
		{f.And(p, f.True()), p, "and true"},
		{f.And(p, f.False()), f.False(), "and false"},
		{f.Or(p, f.True()), f.True(), "or true"},
		{f.Or(p, f.False()), p, "or false"},
		{f.And(p, p), p, "and idempotent"},
		{f.Or(p, p), p, "or idempotent"},
		{f.And(p, f.Not(p)), f.False(), "and complement"},
		{f.Or(p, f.Not(p)), f.True(), "or complement"},
		{f.Not(f.Not(p)), p, "double negation"},
		{f.Xor(p, p), f.False(), "xor self"},
		{f.Xor(p, f.False()), p, "xor false"},
		{f.Xor(p, f.True()), f.Not(p), "xor true"},
		{f.Implies(f.False(), q), f.True(), "ex falso"},
		{f.Implies(p, f.True()), f.True(), "implies true"},
		{f.Eq(p, p), f.True(), "eq self"},
		{f.And(f.And(p, q), p), f.And(p, q), "flatten + dedupe"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
}

func TestBVSimplifications(t *testing.T) {
	f := NewFactory()
	a := f.BVVar("a", 8)
	zero := f.BVConst64(0, 8)
	ones := f.BVConst64(255, 8)
	one := f.BVConst64(1, 8)
	cases := []struct {
		got, want *Term
		name      string
	}{
		{f.Add(a, zero), a, "add zero"},
		{f.Sub(a, zero), a, "sub zero"},
		{f.Sub(a, a), zero, "sub self"},
		{f.Mul(a, one), a, "mul one"},
		{f.Mul(a, zero), zero, "mul zero"},
		{f.BVAnd(a, ones), a, "and ones"},
		{f.BVAnd(a, zero), zero, "and zero"},
		{f.BVOr(a, zero), a, "or zero"},
		{f.BVOr(a, ones), ones, "or ones"},
		{f.BVXor(a, a), zero, "xor self"},
		{f.BVNot(f.BVNot(a)), a, "double bvnot"},
		{f.Shl(a, zero), a, "shl zero"},
		{f.Extract(a, 7, 0), a, "full extract"},
		{f.ZExt(a, 8), a, "zext same width"},
		{f.Ult(a, a), f.False(), "ult self"},
		{f.Ule(a, a), f.True(), "ule self"},
		{f.Eq(a, a), f.True(), "eq self"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	f := NewFactory()
	c := func(v int64) *Term { return f.BVConst64(v, 8) }
	cases := []struct {
		got  *Term
		want int64
		name string
	}{
		{f.Add(c(200), c(100)), 44, "add wraps"},
		{f.Sub(c(1), c(2)), 255, "sub wraps"},
		{f.Mul(c(16), c(17)), 16, "mul wraps"},
		{f.Neg(c(1)), 255, "neg"},
		{f.BVAnd(c(0xF0), c(0xCC)), 0xC0, "and"},
		{f.BVOr(c(0xF0), c(0x0C)), 0xFC, "or"},
		{f.BVXor(c(0xFF), c(0x0F)), 0xF0, "xor"},
		{f.BVNot(c(0x0F)), 0xF0, "not"},
		{f.Shl(c(1), c(3)), 8, "shl"},
		{f.Shl(c(1), c(9)), 0, "shl overflow"},
		{f.Lshr(c(0x80), c(7)), 1, "lshr"},
		{f.Ashr(c(0x80), c(7)), 0xFF, "ashr sign"},
		{f.Concat(f.BVConst64(0xA, 4), f.BVConst64(0xB, 4)), 0xAB, "concat"},
		{f.Extract(c(0xAB), 7, 4), 0xA, "extract"},
		{f.SExt(f.BVConst64(0x8, 4), 8), 0xF8, "sext"},
		{f.ZExt(f.BVConst64(0x8, 4), 8), 0x08, "zext"},
	}
	for _, cse := range cases {
		if !cse.got.IsConst() {
			t.Errorf("%s: not folded: %s", cse.name, cse.got)
			continue
		}
		if cse.got.Const().Int64() != cse.want {
			t.Errorf("%s: got %d, want %d", cse.name, cse.got.Const().Int64(), cse.want)
		}
	}
	boolCases := []struct {
		got  *Term
		want bool
		name string
	}{
		{f.Ult(c(1), c(2)), true, "ult"},
		{f.Ule(c(2), c(2)), true, "ule"},
		{f.Slt(c(255), c(0)), true, "slt (-1 < 0)"},
		{f.Sle(c(0), c(255)), false, "sle (0 <= -1)"},
		{f.Eq(c(5), c(5)), true, "eq"},
		{f.Eq(c(5), c(6)), false, "neq"},
	}
	for _, cse := range boolCases {
		want := f.Bool(cse.want)
		if cse.got != want {
			t.Errorf("%s: got %s, want %s", cse.name, cse.got, want)
		}
	}
}

func TestIte(t *testing.T) {
	f := NewFactory()
	p := f.BoolVar("p")
	a, b := f.BVVar("a", 8), f.BVVar("b", 8)
	if f.Ite(f.True(), a, b) != a {
		t.Error("ite true")
	}
	if f.Ite(f.False(), a, b) != b {
		t.Error("ite false")
	}
	if f.Ite(p, a, a) != a {
		t.Error("ite same branches")
	}
	env := Env{}
	env.SetBool("p", true)
	env.SetUint64("a", 3)
	env.SetUint64("b", 9)
	if got := Eval(f.Ite(p, a, b), env); got.Int64() != 3 {
		t.Errorf("ite eval = %d, want 3", got.Int64())
	}
}

func TestEvalBasics(t *testing.T) {
	f := NewFactory()
	a, b := f.BVVar("a", 16), f.BVVar("b", 16)
	expr := f.Add(f.Mul(a, f.BVConst64(3, 16)), b)
	env := Env{}
	env.SetUint64("a", 100)
	env.SetUint64("b", 7)
	if got := Eval(expr, env); got.Int64() != 307 {
		t.Fatalf("eval = %d, want 307", got.Int64())
	}
	cmp := f.Ult(a, b)
	if EvalBool(cmp, env) {
		t.Fatalf("100 < 7 must be false")
	}
}

func TestSubstitute(t *testing.T) {
	f := NewFactory()
	a, b, c := f.BVVar("a", 8), f.BVVar("b", 8), f.BVVar("c", 8)
	expr := f.Add(a, f.Mul(b, a))
	got := Substitute(f, expr, map[*Term]*Term{a: c})
	want := f.Add(c, f.Mul(b, c))
	if got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	// Simultaneous: swap a and b.
	got = Substitute(f, expr, map[*Term]*Term{a: b, b: a})
	want = f.Add(b, f.Mul(a, b))
	if got != want {
		t.Fatalf("swap: got %s, want %s", got, want)
	}
	// Substituting constants triggers folding.
	got = Substitute(f, expr, map[*Term]*Term{a: f.BVConst64(2, 8), b: f.BVConst64(3, 8)})
	if !got.IsConst() || got.Const().Int64() != 8 {
		t.Fatalf("const substitution: got %s, want 8", got)
	}
}

func TestVarsAndSize(t *testing.T) {
	f := NewFactory()
	a, b := f.BVVar("a", 8), f.BVVar("b", 8)
	expr := f.Add(f.Mul(a, b), f.Mul(a, b))
	vars := expr.Vars(nil)
	if len(vars) != 2 {
		t.Fatalf("Vars = %d, want 2", len(vars))
	}
	// Shared subterm counted once: add, mul, a, b = 4 nodes.
	if got := expr.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
	if got := treeSize(expr, 100); got != 7 {
		t.Fatalf("treeSize = %d, want 7", got)
	}
}

// TestDAGSharingAblation demonstrates the design decision recorded in
// DESIGN.md: an iterated ite chain (the shape WP produces for sequential
// merges) stays linear in DAG size while its tree expansion is exponential.
func TestDAGSharingAblation(t *testing.T) {
	f := NewFactory()
	x := f.BVVar("x", 8)
	for i := 0; i < 30; i++ {
		c := f.Eq(x, f.BVConst64(int64(i), 8))
		x = f.Ite(c, f.Add(x, f.BVConst64(1, 8)), f.Sub(x, f.BVConst64(1, 8)))
	}
	if n := x.Size(); n > 400 {
		t.Fatalf("DAG size %d; sharing is broken", n)
	}
	const cap = 1 << 20
	if n := treeSize(x, cap); n < cap {
		t.Fatalf("tree size %d unexpectedly small", n)
	}
}

// treeSize returns the size of t expanded as a tree, capped at limit
// (returns limit if exceeded): what DAG sharing saves.
func treeSize(t *Term, limit int) int {
	var walk func(*Term, int) int
	walk = func(u *Term, budget int) int {
		if budget <= 0 {
			return 0
		}
		n := 1
		for _, a := range u.args {
			n += walk(a, budget-n)
			if n >= budget {
				return budget
			}
		}
		return n
	}
	return walk(t, limit)
}

// refNode is an independently evaluated expression tree used as an oracle
// for both the factory's simplifications and the evaluator.
type refNode struct {
	op   Op
	args []*refNode
	v    int64 // const value
	name string
}

func (r *refNode) build(f *Factory, w int) *Term {
	switch r.op {
	case OpConst:
		return f.BVConst64(r.v, w)
	case OpVar:
		return f.BVVar(r.name, w)
	case OpAdd:
		return f.Add(r.args[0].build(f, w), r.args[1].build(f, w))
	case OpSub:
		return f.Sub(r.args[0].build(f, w), r.args[1].build(f, w))
	case OpMul:
		return f.Mul(r.args[0].build(f, w), r.args[1].build(f, w))
	case OpBVAnd:
		return f.BVAnd(r.args[0].build(f, w), r.args[1].build(f, w))
	case OpBVOr:
		return f.BVOr(r.args[0].build(f, w), r.args[1].build(f, w))
	case OpBVXor:
		return f.BVXor(r.args[0].build(f, w), r.args[1].build(f, w))
	case OpBVNot:
		return f.BVNot(r.args[0].build(f, w))
	case OpNeg:
		return f.Neg(r.args[0].build(f, w))
	default:
		panic("unexpected op")
	}
}

func (r *refNode) eval(env map[string]uint64, w int) uint64 {
	mask := uint64(1)<<w - 1
	switch r.op {
	case OpConst:
		return uint64(r.v) & mask
	case OpVar:
		return env[r.name] & mask
	case OpAdd:
		return (r.args[0].eval(env, w) + r.args[1].eval(env, w)) & mask
	case OpSub:
		return (r.args[0].eval(env, w) - r.args[1].eval(env, w)) & mask
	case OpMul:
		return (r.args[0].eval(env, w) * r.args[1].eval(env, w)) & mask
	case OpBVAnd:
		return r.args[0].eval(env, w) & r.args[1].eval(env, w)
	case OpBVOr:
		return r.args[0].eval(env, w) | r.args[1].eval(env, w)
	case OpBVXor:
		return r.args[0].eval(env, w) ^ r.args[1].eval(env, w)
	case OpBVNot:
		return ^r.args[0].eval(env, w) & mask
	case OpNeg:
		return (-r.args[0].eval(env, w)) & mask
	default:
		panic("unexpected op")
	}
}

func randomRef(rng *rand.Rand, depth int) *refNode {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return &refNode{op: OpConst, v: int64(rng.Intn(256))}
		}
		return &refNode{op: OpVar, name: string(rune('a' + rng.Intn(4)))}
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpBVAnd, OpBVOr, OpBVXor, OpBVNot, OpNeg}
	op := ops[rng.Intn(len(ops))]
	n := &refNode{op: op}
	arity := 2
	if op == OpBVNot || op == OpNeg {
		arity = 1
	}
	for i := 0; i < arity; i++ {
		n.args = append(n.args, randomRef(rng, depth-1))
	}
	return n
}

// TestFactoryAndEvalAgainstReference is the core property test: for random
// expression trees and random environments, the factory-built (and thus
// simplified) term evaluates exactly like the reference tree semantics.
func TestFactoryAndEvalAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const w = 8
	for iter := 0; iter < 2000; iter++ {
		f := NewFactory()
		ref := randomRef(rng, 4)
		term := ref.build(f, w)
		for trial := 0; trial < 4; trial++ {
			env := Env{}
			envRef := map[string]uint64{}
			for _, nm := range []string{"a", "b", "c", "d"} {
				v := rng.Uint64() & 0xFF
				env.SetUint64(nm, v)
				envRef[nm] = v
			}
			got := Eval(term, env).Uint64()
			want := ref.eval(envRef, w)
			if got != want {
				t.Fatalf("iter %d: term %s: got %d, want %d (env %v)", iter, term, got, want, envRef)
			}
		}
	}
}

func TestWideBitvectors(t *testing.T) {
	f := NewFactory()
	// 128-bit arithmetic (IPv6 addresses in P4 headers).
	a := f.BVVar("a", 128)
	max := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1))
	expr := f.Add(a, f.BVConst64(1, 128))
	env := Env{"a": max}
	if got := Eval(expr, env); got.Sign() != 0 {
		t.Fatalf("128-bit wrap: got %s, want 0", got)
	}
	c := f.BVConst(max, 128)
	if f.BVNot(c).Const().Sign() != 0 {
		t.Fatalf("bvnot of all-ones must be zero")
	}
}

func TestNegativeConstNormalization(t *testing.T) {
	f := NewFactory()
	c := f.BVConst(big.NewInt(-1), 8)
	if c.Const().Int64() != 255 {
		t.Fatalf("BVConst(-1, 8) = %d, want 255", c.Const().Int64())
	}
}

func TestPanicsOnSortErrors(t *testing.T) {
	f := NewFactory()
	a8, a16 := f.BVVar("a", 8), f.BVVar("b", 16)
	assertPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanic("width mismatch", func() { f.Add(a8, a16) })
	assertPanic("bool arg to add", func() { f.Add(f.BoolVar("p"), a8) })
	assertPanic("bv arg to and", func() { f.And(a8) })
	assertPanic("extract out of range", func() { f.Extract(a8, 8, 0) })
	assertPanic("zext narrower", func() { f.ZExt(a16, 8) })
	assertPanic("bad width", func() { BV(0) })
}

func BenchmarkFactoryAdd(b *testing.B) {
	f := NewFactory()
	a := f.BVVar("a", 32)
	x := f.BVVar("b", 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(a, x)
	}
}

func BenchmarkEvalDeep(b *testing.B) {
	f := NewFactory()
	x := f.BVVar("x", 32)
	expr := x
	for i := 0; i < 200; i++ {
		expr = f.Add(f.Mul(expr, x), f.BVConst64(int64(i), 32))
	}
	env := Env{}
	env.SetUint64("x", 12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Eval(expr, env)
	}
}

// TestFactoryConcurrentInterningDeterministic pins down the two
// properties the parallel inference engine relies on: a factory shared
// by many goroutines still hash-conses (structurally equal terms are
// pointer-identical no matter which goroutine interned them first), and
// canonical argument ordering of commutative operators depends only on
// term content — so a concurrently-populated factory renders every term
// exactly like a serial one. Run under -race this also exercises the
// intern lock.
func TestFactoryConcurrentInterningDeterministic(t *testing.T) {
	const n = 64
	build := func(f *Factory, i int) *Term {
		a := f.BVVar(fmt.Sprintf("a%d", i%7), 8)
		b := f.BVVar(fmt.Sprintf("b%d", i%5), 8)
		sum := f.Add(f.Mul(a, b), f.BVConst64(int64(i%11), 8))
		return f.And(f.Eq(sum, b), f.Ult(a, sum), f.BoolVar(fmt.Sprintf("p%d", i%3)))
	}
	serial := NewFactory()
	want := make([]string, n)
	for i := range want {
		want[i] = build(serial, i).String()
	}

	shared := NewFactory()
	const goroutines = 8
	got := make([][]*Term, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*Term, n)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				idx := i
				if g%2 == 1 {
					idx = n - 1 - i // vary interning order across goroutines
				}
				got[g][idx] = build(shared, idx)
			}
		}(g)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		for g := 1; g < goroutines; g++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("expr %d: goroutine %d interned a distinct term", i, g)
			}
		}
		if s := got[0][i].String(); s != want[i] {
			t.Errorf("expr %d: concurrent factory renders %q, serial %q", i, s, want[i])
		}
	}
}
