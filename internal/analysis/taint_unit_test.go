package analysis

import (
	"math/big"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/smt"
)

// TestTaintLoopConverges: a cyclic CFG swapping taint between two
// variables must reach a fixpoint with both fully tainted, in a small
// number of iterations — provenance churn must not prevent convergence
// (masks alone drive Equal).
func TestTaintLoopConverges(t *testing.T) {
	p := ir.NewProgram("t")
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	ys := p.NewVar("y"+ir.TaintSuffix, smt.BV(8))
	c := p.NewVar("c", smt.BoolSort)

	start := p.NewNode(ir.Nop)
	p.Start = start
	init := p.NewNode(ir.Assign)
	init.Var, init.Expr = xs, p.F.BVConst64(0xff, 8)
	head := p.NewNode(ir.Nop)
	a1 := p.NewNode(ir.Assign)
	a1.Var, a1.Expr = ys, xs.Term
	a2 := p.NewNode(ir.Assign)
	a2.Var, a2.Expr = xs, ys.Term
	br := p.NewNode(ir.Branch)
	br.Expr = c.Term
	exit := p.NewNode(ir.AcceptTerm)

	p.Edge(start, init)
	p.Edge(init, head)
	p.Edge(head, a1)
	p.Edge(a1, a2)
	p.Edge(a2, br)
	p.Edge(br, head) // loop back
	p.Edge(br, exit)

	fs := SolveForward(p.Start, &taintAnalysis{p: p})
	out, _ := fs.Out[a2].(iflabels)
	if out == nil {
		t.Fatal("no out fact at loop body")
	}
	for _, name := range []string{"x", "y"} {
		l := out[name]
		if l == nil || l.mask.Cmp(big.NewInt(0xff)) != 0 {
			t.Errorf("%s label = %v, want mask ff", name, l)
		}
	}
	if fs.Iterations > 50 {
		t.Errorf("fixpoint took %d iterations; provenance is likely feeding Equal", fs.Iterations)
	}
	// Witness chains must stay bounded even though the loop copies
	// endlessly: the self-step dedupe plus maxFlowSteps cap both bite.
	for _, name := range []string{"x", "y"} {
		if n := len(out[name].steps); n > maxFlowSteps {
			t.Errorf("%s witness chain length %d exceeds cap %d", name, n, maxFlowSteps)
		}
	}
}

// TestTaintOverwriteKills: assigning an untainted value must remove the
// label (strong update), so a tainted-then-cleared variable reads clean.
func TestTaintOverwriteKills(t *testing.T) {
	p := ir.NewProgram("t")
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	a1 := p.NewNode(ir.Assign)
	a1.Var, a1.Expr = xs, p.F.BVConst64(0xff, 8)
	a2 := p.NewNode(ir.Assign)
	a2.Var, a2.Expr = xs, p.F.BVConst64(0, 8)
	exit := p.NewNode(ir.AcceptTerm)
	start := p.NewNode(ir.Nop)
	p.Start = start
	p.Edge(start, a1)
	p.Edge(a1, a2)
	p.Edge(a2, exit)

	fs := SolveForward(p.Start, &taintAnalysis{p: p})
	if out, _ := fs.Out[a2].(iflabels); out["x"] != nil {
		t.Errorf("x still labeled after overwrite: %v", out["x"])
	}
	if mid, _ := fs.Out[a1].(iflabels); mid["x"] == nil {
		t.Error("x unlabeled right after tainting assignment")
	}
}

// TestTaintJoinUnionsMasks: per-bit join — different bits tainted on
// two arms union at the merge.
func TestTaintJoinUnionsMasks(t *testing.T) {
	p := ir.NewProgram("t")
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	c := p.NewVar("c", smt.BoolSort)
	start := p.NewNode(ir.Nop)
	p.Start = start
	br := p.NewNode(ir.Branch)
	br.Expr = c.Term
	thenA := p.NewNode(ir.Assign)
	thenA.Var, thenA.Expr = xs, p.F.BVConst64(0x0f, 8)
	elseA := p.NewNode(ir.Assign)
	elseA.Var, elseA.Expr = xs, p.F.BVConst64(0xf0, 8)
	join := p.NewNode(ir.Nop)
	exit := p.NewNode(ir.AcceptTerm)
	p.Edge(start, br)
	p.Edge(br, thenA)
	p.Edge(br, elseA)
	p.Edge(thenA, join)
	p.Edge(elseA, join)
	p.Edge(join, exit)

	fs := SolveForward(p.Start, &taintAnalysis{p: p})
	out, _ := fs.Out[join].(iflabels)
	if out == nil || out["x"] == nil || out["x"].mask.Cmp(big.NewInt(0xff)) != 0 {
		t.Fatalf("join label = %v, want mask ff", out["x"])
	}
}

// TestEvalTaintUnboundIsPublic: shadow variables of unlabeled bases
// evaluate to zero, so a taint term over clean inputs reads clean.
func TestEvalTaintUnboundIsPublic(t *testing.T) {
	p := ir.NewProgram("t")
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	ys := p.NewVar("y"+ir.TaintSuffix, smt.BV(8))
	term := p.F.BVOr(xs.Term, ys.Term)
	e := iflabels{"x": &label{mask: big.NewInt(0x0c), src: "x"}}
	if got := e.evalTaint(term); got.Cmp(big.NewInt(0x0c)) != 0 {
		t.Errorf("evalTaint = %v, want 0x0c (y unbound reads 0)", got)
	}
	if got := (iflabels{}).evalTaint(term); got.Sign() != 0 {
		t.Errorf("evalTaint over empty labels = %v, want 0", got)
	}
}

// TestFallbackPos: synthesized nodes without positions anchor to the
// nearest positioned predecessor; chains of synthetic nodes walk back.
func TestFallbackPos(t *testing.T) {
	p := ir.NewProgram("t")
	a := p.NewNode(ir.Nop)
	a.Pos.Line, a.Pos.Col = 7, 3
	b := p.NewNode(ir.Nop)
	c := p.NewNode(ir.BugTerm)
	p.Edge(a, b)
	p.Edge(b, c)
	if got := FallbackPos(c); got.Line != 7 || got.Col != 3 {
		t.Errorf("FallbackPos = %d:%d, want 7:3", got.Line, got.Col)
	}
	if got := FallbackPos(a); got.Line != 7 {
		t.Errorf("FallbackPos of positioned node = %d, want its own line 7", got.Line)
	}
	lone := p.NewNode(ir.BugTerm)
	if got := FallbackPos(lone); got.IsValid() {
		t.Errorf("FallbackPos with no positioned ancestor = %v, want invalid", got)
	}
}

// TestTaintTransferEveryNodeKind feeds one node of every ir.NodeKind to
// the label transfer: a kind with no arm panics there. Only a shadow
// assignment may move a label; every other kind is the identity.
func TestTaintTransferEveryNodeKind(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.NewVar("x", smt.BV(8))
	xs := p.NewVar("x"+ir.TaintSuffix, smt.BV(8))
	a := &taintAnalysis{p: p}
	in := iflabels{"y": &label{mask: big.NewInt(1), src: "y"}}
	kinds := 0
	for k := ir.NodeKind(0); k.String() != ""; k++ {
		kinds++
		n := p.NewNode(k)
		n.Var, n.Expr = x, p.F.BVConst64(0xff, 8) // a value write: no label effect
		if out := a.Transfer(n, in); !a.Equal(out, in) {
			t.Errorf("%v: transfer of a non-shadow node changed the labels: %v", k, out)
		}
	}
	if kinds < 10 {
		t.Fatalf("enumerated %d node kinds, want at least the 10 known ones", kinds)
	}
	n := p.NewNode(ir.Assign)
	n.Var, n.Expr = xs, p.F.BVConst64(0xf0, 8)
	out := a.Transfer(n, in).(iflabels)
	if out["x"] == nil || out["x"].mask.Cmp(big.NewInt(0xf0)) != 0 || out["y"] == nil {
		t.Errorf("shadow assignment: labels = %v, want x=f0 and y kept", out)
	}
}
