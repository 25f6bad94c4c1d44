package ir

import (
	"testing"

	"bf4/internal/smt"
)

// TestMaskTaint pins the bit-precise rules for a constant mask at width 4:
// taint(x & c) = taint(x) & c and taint(x | c) = taint(x) & ~c, for every
// constant c and every taint of x, with the constant written on either
// side. Masks of all zeros or all ones are included: there the factory
// folds the term before the transfer sees it, and the taint must agree.
func TestMaskTaint(t *testing.T) {
	const w = 4
	p := NewProgram("mask")
	x := p.NewVar("x", smt.BV(w)).Term
	f := p.F
	b := &builder{p: p}
	for c := uint64(0); c < 1<<w; c++ {
		k := f.BVConst64(int64(c), w)
		cases := []struct {
			name string
			term *smt.Term
			keep uint64 // the bits of x's taint that survive
		}{
			{"x & c", f.BVAnd(x, k), c},
			{"c & x", f.BVAnd(k, x), c},
			{"x | c", f.BVOr(x, k), ^c & (1<<w - 1)},
			{"c | x", f.BVOr(k, x), ^c & (1<<w - 1)},
		}
		for _, tc := range cases {
			taint := b.taintOf(tc.term)
			for xt := uint64(0); xt < 1<<w; xt++ {
				env := smt.Env{}
				env.SetUint64("x"+TaintSuffix, xt)
				if got := smt.Eval(taint, env).Uint64(); got != xt&tc.keep {
					t.Errorf("%s with c=%#x: taint %s = %#x when x carries %#x, want %#x",
						tc.name, c, taint, got, xt, xt&tc.keep)
				}
			}
		}
	}
}
