package smt_test

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"bf4/internal/smt"
	"bf4/internal/smt/termgen"
)

// lowerRun lowers term with smt.Limbs registers per distinct variable,
// fills the register file from env (normalized per sort, unbound vars
// zero), and runs the program.
func lowerRun(term *smt.Term, env smt.Env) (bool, error) {
	vars := term.Vars(nil)
	slots, n := map[string]int{}, 0
	for _, v := range vars {
		slots[v.Name()] = n
		n += smt.Limbs(v.Sort().Width)
	}
	prog, err := smt.LowerBool(term, n, func(name string, s smt.Sort) (int, error) {
		i, ok := slots[name]
		if !ok {
			return 0, fmt.Errorf("slot for unknown var %s", name)
		}
		return i, nil
	})
	if err != nil {
		return false, err
	}
	regs := make([]uint64, prog.NumRegs())
	for _, v := range vars {
		if val, ok := env[v.Name()]; ok {
			copy(regs[slots[v.Name()]:], normLimbs(val, v.Sort()))
		}
	}
	return prog.Eval(regs), nil
}

// normLimbs reduces a value to the slot representation the lowering
// contract requires: booleans 0/1, width-w vectors mod 2^w, in
// smt.Limbs(w) little-endian 64-bit limbs.
func normLimbs(v *big.Int, s smt.Sort) []uint64 {
	if s.IsBool() {
		if v.Sign() != 0 {
			return []uint64{1}
		}
		return []uint64{0}
	}
	m := new(big.Int).Mod(v, new(big.Int).Lsh(big.NewInt(1), uint(s.Width)))
	limbs := make([]uint64, smt.Limbs(s.Width))
	for i := range limbs {
		limbs[i] = new(big.Int).Rsh(m, uint(64*i)).Uint64()
	}
	return limbs
}

// mustAgree checks the fast path against EvalBool for one boolean term.
func mustAgree(t *testing.T, term *smt.Term, env smt.Env) {
	t.Helper()
	want := smt.EvalBool(term, env)
	got, err := lowerRun(term, env)
	if err != nil {
		t.Fatalf("LowerBool(%s): %v", term, err)
	}
	if got != want {
		t.Fatalf("fast path disagrees on %s: fast=%v slow=%v (env %v)", term, got, want, env)
	}
}

// checkBVExpr verifies the fast path computes the exact value of a BV
// expression: Eq against the slow path's value must hold, Eq against
// value+1 must not.
func checkBVExpr(t *testing.T, f *smt.Factory, expr *smt.Term, env smt.Env) {
	t.Helper()
	w := expr.Sort().Width
	want := smt.Eval(expr, env)
	mustAgree(t, f.Eq(expr, f.BVConst(want, w)), env)
	wrong := new(big.Int).Add(want, big.NewInt(1))
	mustAgree(t, f.Eq(expr, f.BVConst(wrong, w)), env)
}

// valueGrid returns adversarial values for a width: boundaries, sign bit,
// alternating pattern, and shift-amount edge cases (w-1, w, w+1).
func valueGrid(w int) []*big.Int {
	max := new(big.Int).Lsh(big.NewInt(1), uint(w))
	max.Sub(max, big.NewInt(1))
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Set(max),
		new(big.Int).Sub(max, big.NewInt(1)),
		new(big.Int).Rsh(max, 1),                            // 0111...
		new(big.Int).Lsh(big.NewInt(1), uint(w-1)),          // sign bit
		new(big.Int).Mod(big.NewInt(int64(w-1)), incr(max)), // shift edges
		new(big.Int).Mod(big.NewInt(int64(w)), incr(max)),
		new(big.Int).Mod(big.NewInt(int64(w+1)), incr(max)),
	}
	pat := new(big.Int)
	for i := 0; i < w; i += 2 {
		pat.SetBit(pat, i, 1)
	}
	vals = append(vals, pat)
	// Dedup (small grid, quadratic is fine).
	out := vals[:0]
	for _, v := range vals {
		dup := false
		for _, u := range out {
			if u.Cmp(v) == 0 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

func incr(v *big.Int) *big.Int { return new(big.Int).Add(v, big.NewInt(1)) }

// TestLowerBinaryOpsMatchEval sweeps every binary BV op across
// width-boundary widths and adversarial value pairs, requiring the
// bytecode to compute the exact slow-path value.
func TestLowerBinaryOpsMatchEval(t *testing.T) {
	f := smt.NewFactory()
	ops := []struct {
		name string
		mk   func(a, b *smt.Term) *smt.Term
	}{
		{"add", f.Add}, {"sub", f.Sub}, {"mul", f.Mul},
		{"bvand", f.BVAnd}, {"bvor", f.BVOr}, {"bvxor", f.BVXor},
		{"shl", f.Shl}, {"lshr", f.Lshr}, {"ashr", f.Ashr},
	}
	for _, w := range []int{1, 2, 7, 63, 64} {
		x, y := f.BVVar("x", w), f.BVVar("y", w)
		grid := valueGrid(w)
		for _, op := range ops {
			expr := op.mk(x, y)
			if expr.Op() == smt.OpConst || expr.Op() == smt.OpVar {
				continue // folded away by the factory
			}
			for _, xv := range grid {
				for _, yv := range grid {
					env := smt.Env{"x": xv, "y": yv}
					checkBVExpr(t, f, expr, env)
				}
			}
		}
	}
}

// TestLowerComparisonsMatchEval covers the comparison ops, including the
// signed ones whose lowering sign-extends in registers.
func TestLowerComparisonsMatchEval(t *testing.T) {
	f := smt.NewFactory()
	for _, w := range []int{1, 2, 7, 63, 64} {
		x, y := f.BVVar("x", w), f.BVVar("y", w)
		cmps := []*smt.Term{
			f.Eq(x, y), f.Ult(x, y), f.Ule(x, y), f.Slt(x, y), f.Sle(x, y),
		}
		grid := valueGrid(w)
		for _, xv := range grid {
			for _, yv := range grid {
				env := smt.Env{"x": xv, "y": yv}
				for _, c := range cmps {
					mustAgree(t, c, env)
				}
			}
		}
	}
}

// TestLowerUnaryAndStructuralOps covers neg/bvnot, ite over BV branches,
// concat, extract and the extensions at 64-bit boundaries.
func TestLowerUnaryAndStructuralOps(t *testing.T) {
	f := smt.NewFactory()
	for _, w := range []int{1, 7, 63, 64} {
		x := f.BVVar("x", w)
		for _, xv := range valueGrid(w) {
			env := smt.Env{"x": xv}
			checkBVExpr(t, f, f.Neg(x), env)
			checkBVExpr(t, f, f.BVNot(x), env)
			if w > 1 {
				checkBVExpr(t, f, f.Extract(x, w-1, 1), env)
				checkBVExpr(t, f, f.Extract(x, w-1, w-1), env)
				checkBVExpr(t, f, f.Extract(x, w-2, 0), env)
			}
			if w < 64 {
				checkBVExpr(t, f, f.ZExt(x, 64), env)
				checkBVExpr(t, f, f.SExt(x, 64), env)
			}
		}
	}
	// Concat splits that land exactly on 64.
	for _, split := range [][2]int{{1, 63}, {32, 32}, {63, 1}, {7, 2}, {1, 1}} {
		a, b := f.BVVar("a", split[0]), f.BVVar("b", split[1])
		for _, av := range valueGrid(split[0]) {
			for _, bv := range valueGrid(split[1]) {
				checkBVExpr(t, f, f.Concat(a, b), smt.Env{"a": av, "b": bv})
			}
		}
	}
	// BV-sorted ite (boolean ite is factory-rewritten into and/or).
	c := f.BoolVar("c")
	x, y := f.BVVar("x64", 64), f.BVVar("y64", 64)
	for _, cv := range []bool{false, true} {
		env := smt.Env{"x64": big.NewInt(5), "y64": new(big.Int).Lsh(big.NewInt(1), 63)}
		env.SetBool("c", cv)
		checkBVExpr(t, f, f.Ite(c, x, y), env)
	}
}

// TestLowerBooleanOps covers the n-ary and/or chains, xor, not and eq
// over booleans (iff via the factory).
func TestLowerBooleanOps(t *testing.T) {
	f := smt.NewFactory()
	p, q, r := f.BoolVar("p"), f.BoolVar("q"), f.BoolVar("r")
	terms := []*smt.Term{
		f.And(p, q, r), f.Or(p, q, r), f.Xor(p, q), f.Not(p),
		f.Implies(p, q), f.Eq(p, q), f.Ite(p, q, r),
		f.And(f.Or(p, q), f.Or(f.Not(p), r)),
	}
	for mask := 0; mask < 8; mask++ {
		env := smt.Env{}
		env.SetBool("p", mask&1 != 0)
		env.SetBool("q", mask&2 != 0)
		env.SetBool("r", mask&4 != 0)
		for _, term := range terms {
			mustAgree(t, term, env)
		}
	}
}

// TestLowerUnboundVarIsZero: a slot of -1 must behave like Eval's
// unbound-variable-to-zero convention.
func TestLowerUnboundVarIsZero(t *testing.T) {
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	h := f.BoolVar("h")
	term := f.And(f.Eq(x, f.BVConst64(0, 8)), f.Not(h))
	prog, err := smt.LowerBool(term, 0, func(name string, s smt.Sort) (int, error) {
		return -1, nil // everything unbound
	})
	if err != nil {
		t.Fatalf("LowerBool: %v", err)
	}
	regs := make([]uint64, prog.NumRegs())
	got := prog.Eval(regs)
	want := smt.EvalBool(term, smt.Env{})
	if got != want {
		t.Fatalf("unbound eval: fast=%v slow=%v", got, want)
	}
	if !got {
		t.Fatalf("x==0 && !h should hold with both unbound")
	}
}

// TestLowerWideTermsMatchEval: the operators the register machine takes
// at any width — =, bvult, bvule, bvand, bvor, bvxor, bvnot, ite, extract
// and zero_extend — lower on values of one to three limbs and compute
// Eval's value, at the limb boundaries and across them.
func TestLowerWideTermsMatchEval(t *testing.T) {
	f := smt.NewFactory()
	for _, w := range []int{65, 100, 127, 128, 129, 192} {
		x, y := f.BVVar("x", w), f.BVVar("y", w)
		grid := valueGrid(w)
		for _, xv := range grid {
			for _, yv := range grid {
				env := smt.Env{"x": xv, "y": yv}
				for _, c := range []*smt.Term{f.Eq(x, y), f.Ult(x, y), f.Ule(x, y)} {
					mustAgree(t, c, env)
				}
				for _, e := range []*smt.Term{f.BVAnd(x, y), f.BVOr(x, y), f.BVXor(x, y), f.BVNot(x)} {
					checkBVExpr(t, f, e, env)
				}
			}
			env := smt.Env{"x": xv}
			env.SetBool("c", xv.Bit(64) == 1)
			checkBVExpr(t, f, f.Ite(f.BoolVar("c"), x, f.BVConst(grid[len(grid)-1], w)), env)
			checkBVExpr(t, f, f.ZExt(x, w+70), env)
			// Extracts inside a limb, ending on and starting at a
			// boundary, across one boundary, and whole limbs wide.
			for _, r := range [][2]int{{0, 0}, {63, 0}, {64, 1}, {64, 60}, {w - 1, 64}, {w - 1, 1}, {w - 1, w - 1}, {w - 2, 0}} {
				checkBVExpr(t, f, f.Extract(x, r[0], r[1]), env)
			}
		}
		n := f.BVVar("n", 40)
		for _, nv := range valueGrid(40) {
			checkBVExpr(t, f, f.ZExt(n, w), smt.Env{"n": nv})
		}
	}
}

// TestLowerWideArithmeticRefused: every operator lowered only at widths
// up to 64 refuses a wider operand or result with ErrWideTerm (the
// shim's counted term-tier fallback), and the same operators at 64 bits
// lower.
func TestLowerWideArithmeticRefused(t *testing.T) {
	f := smt.NewFactory()
	noSlots := func(name string, s smt.Sort) (int, error) { return -1, nil }
	for _, w := range []int{64, 65, 128} {
		x, y := f.BVVar("x", w), f.BVVar("y", w)
		for _, term := range []*smt.Term{
			f.Eq(f.Add(x, y), x), f.Eq(f.Sub(x, y), x), f.Eq(f.Neg(x), y), f.Eq(f.Mul(x, y), x),
			f.Eq(f.Shl(x, y), x), f.Eq(f.Lshr(x, y), x), f.Eq(f.Ashr(x, y), x),
			f.Slt(x, y), f.Sle(x, y),
			f.Eq(f.Concat(f.BVVar("a", w-32), f.BVVar("b", 32)), x),
			f.Eq(f.SExt(f.BVVar("c", w-8), w), x),
		} {
			_, err := smt.LowerBool(term, 0, noSlots)
			if w == 64 && err != nil {
				t.Errorf("%s: %v", term, err)
			}
			if w > 64 && !errors.Is(err, smt.ErrWideTerm) {
				t.Errorf("%s: got %v, want ErrWideTerm", term, err)
			}
		}
	}
}

// TestLowerSlotErrorAborts: a SlotFunc error (shadow-table variable)
// surfaces to the caller.
func TestLowerSlotErrorAborts(t *testing.T) {
	f := smt.NewFactory()
	shadowErr := errors.New("shadow var")
	term := f.And(f.BoolVar("ok"), f.BoolVar("t2.hit"))
	_, err := smt.LowerBool(term, 1, func(name string, s smt.Sort) (int, error) {
		if name == "t2.hit" {
			return 0, shadowErr
		}
		return 0, nil
	})
	if !errors.Is(err, shadowErr) {
		t.Fatalf("got %v, want slot error", err)
	}
}

// TestLowerSharedDAGOnce: a shared subterm compiles to one instruction
// sequence (the memo), keeping programs linear in DAG size.
func TestLowerSharedDAGOnce(t *testing.T) {
	f := smt.NewFactory()
	x, y := f.BVVar("x", 32), f.BVVar("y", 32)
	sum := f.Add(x, y)
	term := f.And(f.Ult(sum, f.BVConst64(10, 32)), f.Not(f.Eq(sum, f.BVConst64(3, 32))))
	prog, err := smt.LowerBool(term, 2, func(name string, s smt.Sort) (int, error) {
		if name == "x" {
			return 0, nil
		}
		return 1, nil
	})
	if err != nil {
		t.Fatalf("LowerBool: %v", err)
	}
	// add, const10, ult, const3, eq, not, and = 7; a tree-expanded
	// lowering would emit the add twice.
	if n := smt.ProgramLen(prog); n > 7 {
		t.Fatalf("shared DAG lowered to %d instructions, want <= 7", n)
	}
	env := smt.Env{"x": big.NewInt(4), "y": big.NewInt(5)}
	mustAgree(t, term, env)
}

// FuzzLower cross-checks the bytecode against smt.EvalBool on random
// term DAGs, at widths on both sides of each limb boundary. A term lowers
// unless some operator lowered only up to 64 bits (lowerableAtAnyWidth
// says which are not) has a wider operand or result; then it must refuse
// with ErrWideTerm. Any other lowering failure, and any disagreement, is
// a bug.
func FuzzLower(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add([]byte{0xff, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01, 0x00, 0xaa, 0x55})
	f.Add([]byte("differential-lowering-seed-with-some-length-to-burn"))
	f.Add([]byte{0x01, 0x08, 0x07, 0x00, 0x01, 0x00, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fac := smt.NewFactory()
		g := termgen.NewWide(fac, data)
		term := g.Bool(3)
		env := g.Env()
		want := smt.EvalBool(term, env)
		got, err := lowerRun(term, env)
		if refused := wideOnlyOp(term, map[*smt.Term]bool{}); refused != nil {
			if !errors.Is(err, smt.ErrWideTerm) {
				t.Fatalf("LowerBool(%s) = %v, want ErrWideTerm for %s", term, err, refused)
			}
			return
		}
		if err != nil {
			t.Fatalf("LowerBool failed on lowerable term %s: %v", term, err)
		}
		if got != want {
			t.Fatalf("fast/slow disagree on %s: fast=%v slow=%v", term, got, want)
		}
	})
}

// lowerableAtAnyWidth are the operators lowered limb by limb.
var lowerableAtAnyWidth = map[smt.Op]bool{
	smt.OpConst: true, smt.OpVar: true, smt.OpEq: true, smt.OpUlt: true, smt.OpUle: true,
	smt.OpBVAnd: true, smt.OpBVOr: true, smt.OpBVXor: true, smt.OpBVNot: true,
	smt.OpIte: true, smt.OpExtract: true, smt.OpZExt: true,
}

// wideOnlyOp returns a subterm of t whose operator is lowered only up to
// 64 bits but has a wider operand or result, or nil.
func wideOnlyOp(t *smt.Term, seen map[*smt.Term]bool) *smt.Term {
	if seen[t] {
		return nil
	}
	seen[t] = true
	wide := t.Sort().Width > 64
	for _, a := range t.Args() {
		if r := wideOnlyOp(a, seen); r != nil {
			return r
		}
		wide = wide || a.Sort().Width > 64
	}
	if wide && !lowerableAtAnyWidth[t.Op()] {
		return t
	}
	return nil
}
