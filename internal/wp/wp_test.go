package wp

import (
	"testing"

	"bf4/internal/ir"
	"bf4/internal/smt"
	"bf4/internal/solver"
	"bf4/internal/ssa"
)

// guardedBug builds:
//
//	start -> x = in + 1 -> br(x == 5) -> bug | accept
func guardedBug() (*ir.Program, *ir.Node) {
	p := ir.NewProgram("guarded")
	in := p.NewVar("in", smt.BV(8))
	x := p.NewVar("x", smt.BV(8))
	start := p.NewNode(ir.Nop)
	p.Start = start
	a := p.NewNode(ir.Assign)
	a.Var, a.Expr = x, p.F.Add(in.Term, p.F.BVConst64(1, 8))
	br := p.NewNode(ir.Branch)
	br.Expr = p.F.Eq(x.Term, p.F.BVConst64(5, 8))
	bug := p.NewNode(ir.BugTerm)
	bug.Bug = ir.BugInvalidHeaderRead
	acc := p.NewNode(ir.AcceptTerm)
	p.Edge(start, a)
	p.Edge(a, br)
	p.Edge(br, bug)
	p.Edge(br, acc)
	p.Bugs = append(p.Bugs, bug)
	return p, bug
}

func TestReachabilityOfGuardedBug(t *testing.T) {
	p, bug := guardedBug()
	pass := ssa.Passify(p)
	r := Compute(p, pass, nil)

	cond := r.Cond[bug]
	if cond == nil {
		t.Fatal("no condition for bug")
	}
	s := solver.New()
	if s.Check(cond) != solver.Sat {
		t.Fatal("bug must be reachable (in = 4)")
	}
	m := s.Model()
	if m["in"].Int64() != 4 {
		t.Fatalf("model in = %v, want 4", m["in"])
	}
	// The bug must be unreachable when in != 4.
	if s.Check(cond, p.F.Not(p.F.Eq(p.Vars["in"].Term, p.F.BVConst64(4, 8)))) != solver.Unsat {
		t.Fatal("bug reachable with in != 4")
	}
}

func TestOKFormula(t *testing.T) {
	p, bug := guardedBug()
	pass := ssa.Passify(p)
	r := Compute(p, pass, nil)
	s := solver.New()
	if s.Check(r.OK) != solver.Sat {
		t.Fatal("OK must be satisfiable")
	}
	// OK and the bug condition partition on the guard: their conjunction
	// is unsat (this CFG has exactly one path each).
	if s.Check(p.F.And(r.OK, r.Cond[bug])) != solver.Unsat {
		t.Fatal("OK and bug overlap on a single-path split")
	}
}

func TestUnreachableAfterContradiction(t *testing.T) {
	// start -> br(c) -> (x=1 | x=2) -> join -> br(x==3) -> bug | accept
	p := ir.NewProgram("contra")
	c := p.NewVar("c", smt.BoolSort)
	x := p.NewVar("x", smt.BV(8))
	start := p.NewNode(ir.Nop)
	p.Start = start
	br := p.NewNode(ir.Branch)
	br.Expr = c.Term
	a1 := p.NewNode(ir.Assign)
	a1.Var, a1.Expr = x, p.F.BVConst64(1, 8)
	a2 := p.NewNode(ir.Assign)
	a2.Var, a2.Expr = x, p.F.BVConst64(2, 8)
	join := p.NewNode(ir.Nop)
	br2 := p.NewNode(ir.Branch)
	br2.Expr = p.F.Eq(x.Term, p.F.BVConst64(3, 8))
	bug := p.NewNode(ir.BugTerm)
	acc := p.NewNode(ir.AcceptTerm)
	p.Edge(start, br)
	p.Edge(br, a1)
	p.Edge(br, a2)
	p.Edge(a1, join)
	p.Edge(a2, join)
	p.Edge(join, br2)
	p.Edge(br2, bug)
	p.Edge(br2, acc)
	p.Bugs = append(p.Bugs, bug)

	pass := ssa.Passify(p)
	r := Compute(p, pass, nil)
	s := solver.New()
	if s.Check(r.Cond[bug]) != solver.Unsat {
		t.Fatal("x can only be 1 or 2; bug at x==3 must be unreachable")
	}
}

func TestSliceKeepsBugSemantics(t *testing.T) {
	// Two assignments: one relevant to the bug guard, one not. Dropping
	// the irrelevant one must not change bug reachability.
	p := ir.NewProgram("slice")
	in := p.NewVar("in", smt.BV(8))
	x := p.NewVar("x", smt.BV(8))
	y := p.NewVar("y", smt.BV(8))
	start := p.NewNode(ir.Nop)
	p.Start = start
	ax := p.NewNode(ir.Assign)
	ax.Var, ax.Expr = x, in.Term
	ay := p.NewNode(ir.Assign)
	ay.Var, ay.Expr = y, p.F.BVConst64(42, 8)
	br := p.NewNode(ir.Branch)
	br.Expr = p.F.Eq(x.Term, p.F.BVConst64(9, 8))
	bug := p.NewNode(ir.BugTerm)
	acc := p.NewNode(ir.AcceptTerm)
	p.Edge(start, ax)
	p.Edge(ax, ay)
	p.Edge(ay, br)
	p.Edge(br, bug)
	p.Edge(br, acc)
	p.Bugs = append(p.Bugs, bug)

	pass := ssa.Passify(p)
	full := Compute(p, pass, nil)
	keep := map[*ir.Node]bool{ax: true, br: true} // drop ay's constraint
	sliced := Compute(p, pass, keep)

	s := solver.New()
	r1 := s.Check(full.Cond[bug])
	r2 := s.Check(sliced.Cond[bug])
	if r1 != r2 {
		t.Fatalf("sliced reachability %v differs from full %v", r2, r1)
	}
	// The sliced condition must not mention y's version.
	for _, v := range sliced.Cond[bug].Vars(nil) {
		if v.Name() == "y#1" {
			t.Fatal("sliced condition still constrains y")
		}
	}
}

func TestDontCareReach(t *testing.T) {
	p := ir.NewProgram("dc")
	c := p.NewVar("c", smt.BoolSort)
	start := p.NewNode(ir.Nop)
	p.Start = start
	br := p.NewNode(ir.Branch)
	br.Expr = c.Term
	dc := p.NewNode(ir.DontCare)
	acc1 := p.NewNode(ir.AcceptTerm)
	acc2 := p.NewNode(ir.AcceptTerm)
	p.Edge(start, br)
	p.Edge(br, dc)
	p.Edge(dc, acc1)
	p.Edge(br, acc2)

	pass := ssa.Passify(p)
	r := Compute(p, pass, nil)
	if r.DontCareReach.IsFalse() {
		t.Fatal("dontCare reach must not be false")
	}
	env := smt.Env{}
	env.SetBool("c", true)
	if !smt.EvalBool(r.DontCareReach, env) {
		t.Fatal("dontCare reachable under c")
	}
	env.SetBool("c", false)
	if smt.EvalBool(r.DontCareReach, env) {
		t.Fatal("dontCare unreachable under !c")
	}
}
