package smt

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSerializeParseRoundTrip(t *testing.T) {
	f := NewFactory()
	a, b := f.BVVar("pcn_nat$0.key1", 8), f.BVVar("pcn_nat$0.mask3", 8)
	p := f.BoolVar("pcn_nat$0.hit")
	sorts := VarSorts{
		"pcn_nat$0.key1":  BV(8),
		"pcn_nat$0.mask3": BV(8),
		"pcn_nat$0.hit":   BoolSort,
	}
	terms := []*Term{
		f.True(),
		f.False(),
		p,
		f.Not(p),
		f.And(p, f.Eq(a, f.BVConst64(3, 8))),
		f.Or(f.Not(p), f.Ult(a, b), f.Eq(f.BVAnd(a, b), f.BVConst64(0, 8))),
		f.Eq(f.Add(a, b), f.Sub(a, b)),
		f.Ult(f.Shl(a, f.BVConst64(1, 8)), f.Lshr(b, f.BVConst64(2, 8))),
		f.Eq(f.Concat(a, b), f.BVConst64(0xABCD, 16)),
		f.Eq(f.Extract(a, 7, 4), f.BVConst64(5, 4)),
		f.Eq(f.ZExt(a, 16), f.SExt(b, 16)),
		f.Slt(a, b),
		f.Xor(p, f.Ule(a, b)),
		f.Eq(f.Ite(p, a, b), f.Mul(a, b)),
		f.Eq(f.Neg(a), f.BVNot(b)),
	}
	for _, orig := range terms {
		s := Serialize(orig)
		got, err := Parse(f, s, sorts)
		if err != nil {
			t.Errorf("parse %q: %v", s, err)
			continue
		}
		if got != orig {
			t.Errorf("round trip changed term:\n  orig: %s\n  got:  %s\n  via:  %s", orig, got, s)
		}
	}
}

// TestParseErrors: malformed, ill-sorted and oversized input is an error,
// never a panic or an allocation sized by the input.
func TestParseErrors(t *testing.T) {
	f := NewFactory()
	sorts := VarSorts{"x": BV(8), "x8": BV(8), "y16": BV(16), "t$0.hit": BoolSort}
	cases := []string{
		"",
		"(and true",
		"|unknownvar|",
		"(frobnicate true)",
		"(= |x|)",
		"(_ bvXYZ 8)",
		"true extra",
		// Ill-sorted applications and width mismatches.
		"(bvadd |t$0.hit| true)",
		"(bvult |x8| |y16|)",
		"(= |x8| true)",
		"(ite |x8| true false)",
		"(not |x8|)",
		"(concat |x8| true)",
		// Indices: out of range, negative, too many, too few, huge.
		"((_ extract 99 0) |x8|)",
		"((_ extract 3 4) |x8|)",
		"((_ extract 3) |x8|)",
		"((_ zero_extend -3) |x8|)",
		"((_ sign_extend 1 2) |x8|)",
		"((_ zero_extend 70000000000) |x8|)",
		"((_ bvadd 1) |x8| |x8|)",
		"((_ zero_extend 4090) |y16|)",
		// Literals: width out of range, value out of range or signed.
		"(_ bv1 70000000000)",
		"(_ bv5 0)",
		"(_ bv5 -1)",
		"(_ bv256 8)",
		"(_ bv-1 8)",
		"(_ bv+1 8)",
		"(_ bv 8)",
		"(_ bv1 4097)",
		// Arity, leaves and implication (never a term: Implies builds an or).
		"(and)",
		"(or)",
		"(not)",
		"(xor true)",
		"(var)",
		"(const)",
		"(true)",
		"(=> true false)",
		// Nesting beyond maxParseDepth.
		strings.Repeat("(not ", maxParseDepth+1) + "true" + strings.Repeat(")", maxParseDepth+1),
	}
	for _, src := range cases {
		if _, err := Parse(f, src, sorts); err == nil {
			t.Errorf("Parse(%.40q) succeeded, want error", src)
		}
	}
	// The limits themselves are inside the language.
	for _, src := range []string{
		"(= (_ bv1 4096) (_ bv1 4096))",
		"(= ((_ zero_extend 4080) |y16|) (_ bv0 4096))",
		strings.Repeat("(not ", maxParseDepth-1) + "|t$0.hit|" + strings.Repeat(")", maxParseDepth-1),
	} {
		if _, err := Parse(f, src, sorts); err != nil {
			t.Errorf("Parse(%.40q): %v", src, err)
		}
	}
}

// TestSerializeEvalEquivalence: the parsed term must evaluate identically
// to the original on random environments (semantic round trip).
func TestSerializeEvalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewFactory()
	a, b := f.BVVar("a", 6), f.BVVar("b", 6)
	sorts := VarSorts{"a": BV(6), "b": BV(6), "c": BV(6), "d": BV(6)}
	for iter := 0; iter < 100; iter++ {
		ref := randomRef(rng, 3)
		orig := ref.build(f, 6)
		// Constant-folded terms are fine; serialize whatever came out.
		cmp := f.Ult(orig, f.Add(a, b))
		s := Serialize(cmp)
		got, err := Parse(f, s, sorts)
		if err != nil {
			t.Fatalf("iter %d: %v (%s)", iter, err, s)
		}
		for trial := 0; trial < 3; trial++ {
			env := Env{}
			env.SetUint64("a", rng.Uint64()&63)
			env.SetUint64("b", rng.Uint64()&63)
			if EvalBool(cmp, env) != EvalBool(got, env) {
				t.Fatalf("iter %d: semantics changed through serialization", iter)
			}
		}
	}
}
