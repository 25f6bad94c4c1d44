package smt

import "testing"

// TestOpNumberingPinned: Factory.key and contentHash mix the operator
// number into the canonical argument order, so renumbering an operator
// silently changes CNF shape, search traces and witness bytes. The hashes
// were taken before implication lost its identifier (its slot is reserved).
func TestOpNumberingPinned(t *testing.T) {
	if OpXor != 6 || OpIte != 8 || OpConst != 10 || OpSExt != 29 || NumOps != 30 {
		t.Fatalf("operator numbering moved: OpXor=%d OpIte=%d OpConst=%d OpSExt=%d NumOps=%d",
			OpXor, OpIte, OpConst, OpSExt, NumOps)
	}
	f := NewFactory()
	x, y, p := f.BVVar("x", 8), f.BVVar("y", 8), f.BoolVar("p")
	for _, c := range []struct {
		term *Term
		hash uint64
	}{
		{f.SExt(f.Add(x, y), 16), 0xbbf6976634c99251},
		{f.Ite(p, f.Extract(x, 6, 2), f.BVConst64(9, 5)), 0x76e1b2512023fcec},
		{f.And(p, f.Ult(x, y), f.Not(f.Eq(f.Concat(x, y), f.BVConst64(0xABCD, 16)))), 0xe3d3e56ad8e72d0e},
	} {
		if c.term.hash != c.hash {
			t.Errorf("contentHash(%s) = %#x, want %#x", c.term, c.term.hash, c.hash)
		}
	}
}

// TestApplyRejects: what the table cannot check by sort — leaves, the
// reserved slot, numbers past the table, and index counts — is an error
// too.
func TestApplyRejects(t *testing.T) {
	f := NewFactory()
	x := f.BVVar("x", 8)
	for _, c := range []struct {
		op   Op
		args []*Term
		idx  []int
	}{
		{OpTrue, nil, nil},
		{OpVar, nil, nil},
		{OpConst, nil, nil},
		{OpXor + 1, []*Term{f.True(), f.False()}, nil}, // reserved
		{NumOps, []*Term{x}, nil},
		{OpNeg, []*Term{x}, []int{1}},
		{OpExtract, []*Term{x}, []int{3}},
		{OpExtract, []*Term{x, x}, []int{3, 0}},
		{OpZExt, []*Term{x}, nil},
	} {
		if got, err := f.Apply(c.op, c.args, c.idx...); err == nil {
			t.Errorf("Apply(%d %v, %v, %v) = %s, want error", c.op, c.op, c.args, c.idx, got)
		}
	}
	if got, err := f.Apply(OpExtract, []*Term{x}, 3, 0); err != nil || got != f.Extract(x, 3, 0) {
		t.Errorf("Apply(extract 3 0) = %v, %v", got, err)
	}
}
