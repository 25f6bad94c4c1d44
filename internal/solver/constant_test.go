package solver

import (
	"slices"
	"testing"

	"bf4/internal/smt"
)

// bruteSat reports whether some assignment of terms' variables (8-bit
// vectors and booleans only) makes every term true, by enumeration.
func bruteSat(t *testing.T, terms ...*smt.Term) bool {
	t.Helper()
	var vars []*smt.Term
	for _, tm := range terms {
		vars = tm.Vars(vars)
	}
	bits := 0
	for _, v := range vars {
		switch {
		case v.Sort().IsBool():
			bits++
		case v.Sort().Width == 8:
			bits += 8
		default:
			t.Fatalf("bruteSat: %s is neither boolean nor 8 bits wide", v)
		}
	}
	for point := uint64(0); point < 1<<bits; point++ {
		env, rest := smt.Env{}, point
		for _, v := range vars {
			if v.Sort().IsBool() {
				env.SetBool(v.Name(), rest&1 == 1)
				rest >>= 1
			} else {
				env.SetUint64(v.Name(), rest&0xFF)
				rest >>= 8
			}
		}
		if !slices.ContainsFunc(terms, func(tm *smt.Term) bool { return !smt.EvalBool(tm, env) }) {
			return true
		}
	}
	return false
}

// TestCheckConstantAssumptions: Check skips a constant-true assumption — it
// never enters an unsat core — and blasts a constant-false one to the false
// literal, which surfaces in the core as the caller's term. Each case's answer
// is held to brute force over its formulas' variables, a Sat model to every
// assumption, and an Unsat core to a subset of the assumptions that is itself
// unsatisfiable.
func TestCheckConstantAssumptions(t *testing.T) {
	f := smt.NewFactory()
	x, y := f.BVVar("x", 8), f.BVVar("y", 8)
	p := f.BoolVar("p")
	c := func(v int64) *smt.Term { return f.BVConst64(v, 8) }
	// The factory folds a complementary pair to false as it builds it.
	folded := f.And(p, f.Not(p))
	if !folded.IsFalse() {
		t.Fatalf("p ∧ ¬p built as %s, want false", folded)
	}
	cases := []struct {
		name     string
		assume   []*smt.Term
		wantCore []*smt.Term // exact core, when the case pins one
	}{
		{name: "true", assume: []*smt.Term{f.True()}},
		{name: "false", assume: []*smt.Term{f.False()}, wantCore: []*smt.Term{f.False()}},
		{name: "true-false", assume: []*smt.Term{f.True(), f.False()}, wantCore: []*smt.Term{f.False()}},
		{name: "folded", assume: []*smt.Term{p, folded}, wantCore: []*smt.Term{folded}},
		{name: "true-beside-conflict", assume: []*smt.Term{f.True(), f.Ult(x, c(5)), f.Ugt(x, c(10))}},
		{name: "false-beside-sat", assume: []*smt.Term{f.False(), f.Eq(x, y)}},
		{name: "absorbed", assume: []*smt.Term{f.True(), f.And(p, f.Or(p, f.Eq(x, y)))}},
		{name: "self-contradiction", assume: []*smt.Term{f.Or(f.And(p, f.Ult(x, y)), f.And(p, f.Ule(y, x))), f.Not(p)}},
		{name: "carry-free", assume: []*smt.Term{f.Eq(f.Add(f.BVAnd(x, c(0x0F)), c(0xA0)), y), f.True()}},
		{name: "masked-below", assume: []*smt.Term{f.Ult(f.BVOr(x, c(0xF0)), c(0x10))}},
		{name: "extract-concat", assume: []*smt.Term{f.Eq(f.Extract(f.Concat(x, y), 11, 4), c(0x5A)), f.True()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			got := s.Check(tc.assume...)
			if want := bruteSat(t, tc.assume...); (got == Sat) != want {
				t.Fatalf("Check = %v, brute force says satisfiable = %v", got, want)
			}
			if got == Sat {
				m := s.Model()
				for _, a := range tc.assume {
					if !smt.EvalBool(a, m) {
						t.Errorf("model %v falsifies %s", m, a)
					}
				}
				return
			}
			core := s.UnsatCore()
			for _, a := range core {
				if a.IsTrue() || !slices.Contains(tc.assume, a) {
					t.Errorf("core %v holds %s", core, a)
				}
			}
			if bruteSat(t, core...) {
				t.Errorf("core %v is satisfiable", core)
			}
			if tc.wantCore != nil && !slices.Equal(core, tc.wantCore) {
				t.Errorf("core %v, want %v", core, tc.wantCore)
			}
		})
	}
}
