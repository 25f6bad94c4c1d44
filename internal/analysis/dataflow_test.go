package analysis

import (
	"strings"
	"testing"

	"bf4/internal/cfg"
	"bf4/internal/ir"
	"bf4/internal/slice"
	"bf4/internal/smt"
)

// chain builds start -> ns[0] -> ns[1] -> ... and returns start.
func chain(p *ir.Program, ns ...*ir.Node) *ir.Node {
	start := p.NewNode(ir.Nop)
	prev := start
	for _, n := range ns {
		p.Edge(prev, n)
		prev = n
	}
	p.Start = start
	return start
}

func assign(p *ir.Program, v *ir.Var, rhs *smt.Term) *ir.Node {
	n := p.NewNode(ir.Assign)
	n.Var, n.Expr = v, rhs
	return n
}

// TestConstPropStraightLine: x=3; y=x+1 must solve y to 4.
func TestConstPropStraightLine(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.NewVar("x", smt.BV(8))
	y := p.NewVar("y", smt.BV(8))
	a1 := assign(p, x, p.F.BVConst64(3, 8))
	a2 := assign(p, y, p.F.Add(x.Term, p.F.BVConst64(1, 8)))
	exit := p.NewNode(ir.AcceptTerm)
	chain(p, a1, a2, exit)

	fs := SolveForward(p, NewConstProp(p))
	out := fs.Out[a2].(env)
	if got := out["y"]; got == nil || !got.IsConst() || got.Const().Int64() != 4 {
		t.Fatalf("y = %v, want 4", got)
	}
	if got := out["x"]; got == nil || got.Const().Int64() != 3 {
		t.Fatalf("x = %v, want 3", got)
	}
}

// TestConstPropJoin: a diamond assigning the same constant on both arms
// keeps the binding at the join; differing constants lose it.
func TestConstPropJoin(t *testing.T) {
	for _, agree := range []bool{true, false} {
		p := ir.NewProgram("t")
		x := p.NewVar("x", smt.BV(8))
		c := p.NewVar("c", smt.BoolSort)
		start := p.NewNode(ir.Nop)
		br := p.NewNode(ir.Branch)
		br.Expr = c.Term
		thenV := int64(7)
		elseV := int64(7)
		if !agree {
			elseV = 9
		}
		thenN := assign(p, x, p.F.BVConst64(thenV, 8))
		elseN := assign(p, x, p.F.BVConst64(elseV, 8))
		join := p.NewNode(ir.Nop)
		exit := p.NewNode(ir.AcceptTerm)
		p.Start = start
		p.Edge(start, br)
		p.Edge(br, thenN)
		p.Edge(br, elseN)
		p.Edge(thenN, join)
		p.Edge(elseN, join)
		p.Edge(join, exit)

		fs := SolveForward(p, NewConstProp(p))
		got := fs.In[join].(env)["x"]
		if agree {
			if got == nil || got.Const().Int64() != 7 {
				t.Fatalf("agreeing arms: x = %v at join, want 7", got)
			}
		} else if got != nil {
			t.Fatalf("disagreeing arms: x = %v at join, want top (absent)", got)
		}
	}
}

// TestConstPropPrunesBranch: a branch on a constant-folded condition
// must leave the dead arm unreached, and facts learned before the
// branch must survive through the live arm.
func TestConstPropPrunesBranch(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.NewVar("x", smt.BV(8))
	start := p.NewNode(ir.Nop)
	set := assign(p, x, p.F.BVConst64(1, 8))
	br := p.NewNode(ir.Branch)
	br.Expr = p.F.Eq(x.Term, p.F.BVConst64(1, 8)) // folds to true
	thenN := p.NewNode(ir.Nop)
	elseN := p.NewNode(ir.Nop)
	exit := p.NewNode(ir.AcceptTerm)
	p.Start = start
	p.Edge(start, set)
	p.Edge(set, br)
	p.Edge(br, thenN)
	p.Edge(br, elseN)
	p.Edge(thenN, exit)
	p.Edge(elseN, exit)

	fs := SolveForward(p, NewConstProp(p))
	if !fs.Reached(thenN) {
		t.Fatalf("then arm should be reached")
	}
	if fs.Reached(elseN) {
		t.Fatalf("else arm should be pruned: branch condition folds to true")
	}
	if got := fs.In[exit].(env)["x"]; got == nil || got.Const().Int64() != 1 {
		t.Fatalf("x = %v at exit, want 1", got)
	}
}

// TestEdgeRefinementLearnsEquality: branching on x == 5 teaches the
// then-edge the binding even though x was never assigned.
func TestEdgeRefinementLearnsEquality(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.NewVar("x", smt.BV(8))
	y := p.NewVar("y", smt.BV(8))
	start := p.NewNode(ir.Nop)
	br := p.NewNode(ir.Branch)
	br.Expr = p.F.Eq(x.Term, p.F.BVConst64(5, 8))
	use := assign(p, y, p.F.Add(x.Term, p.F.BVConst64(1, 8)))
	other := p.NewNode(ir.Nop)
	exit := p.NewNode(ir.AcceptTerm)
	p.Start = start
	p.Edge(start, br)
	p.Edge(br, use)   // then: x == 5 holds
	p.Edge(br, other) // else
	p.Edge(use, exit)
	p.Edge(other, exit)

	fs := SolveForward(p, NewConstProp(p))
	if got := fs.In[use].(env)["x"]; got == nil || got.Const().Int64() != 5 {
		t.Fatalf("then-edge: x = %v, want 5 (learned from branch)", got)
	}
	if got := fs.Out[use].(env)["y"]; got == nil || got.Const().Int64() != 6 {
		t.Fatalf("y = %v after use, want 6", got)
	}
	if got := fs.In[other].(env)["x"]; got != nil {
		t.Fatalf("else-edge: x = %v, want top (x != 5 is not a binding)", got)
	}
	// The join must drop the binding again: only one side knows x.
	if got := fs.In[exit].(env)["x"]; got != nil {
		t.Fatalf("join: x = %v, want top", got)
	}
}

// loopGraph builds the loop-shaped graph the IR never produces:
// i = 0; k = 42; head: if c { i = i + 1; goto head } else accept.
func loopGraph() *ir.Program {
	p := ir.NewProgram("t")
	i := p.NewVar("i", smt.BV(8))
	k := p.NewVar("k", smt.BV(8))
	c := p.NewVar("c", smt.BoolSort)

	init := assign(p, i, p.F.BVConst64(0, 8))
	initK := assign(p, k, p.F.BVConst64(42, 8))
	head := p.NewNode(ir.Branch)
	head.Expr = c.Term
	body := assign(p, i, p.F.Add(i.Term, p.F.BVConst64(1, 8)))
	exit := p.NewNode(ir.AcceptTerm)
	chain(p, init, initK)
	p.Edge(initK, head)
	p.Edge(head, body) // then: loop body
	p.Edge(head, exit) // else: leave
	p.Edge(body, head) // back edge
	return p
}

// TestCyclicGraphIsRefused: every CFG pass is one walk in topological
// order, exact only because the IR is acyclic. A graph with a back edge
// must make each of them panic through ir.Program.Topo rather than
// return facts computed without the back edge's contribution.
func TestCyclicGraphIsRefused(t *testing.T) {
	p := loopGraph()
	for _, pass := range []struct {
		name string
		run  func()
	}{
		{"Topo", func() { p.Topo() }},
		{"SolveForward", func() { SolveForward(p, NewConstProp(p)) }},
		{"SolveBackward", func() { SolveBackward(p, NewLiveness(p)) }},
		{"cfg.NewDominators", func() { cfg.NewDominators(p) }},
		{"slice.WRTBugs", func() { slice.WRTBugs(p) }},
	} {
		t.Run(pass.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "ir: cycle through") {
					t.Fatalf("panic = %q, want one naming the cycle (ir: cycle through …)", msg)
				}
			}()
			pass.run()
		})
	}
}

// TestJoinEnvProperties: the join is commutative, idempotent and only
// keeps agreeing bindings — the lattice laws the solver relies on.
func TestJoinEnvProperties(t *testing.T) {
	f := smt.NewFactory()
	one, two := f.BVConst64(1, 8), f.BVConst64(2, 8)
	a := env{"x": one, "y": one}
	b := env{"x": one, "y": two, "z": one}

	ab, ba := joinEnv(a, b), joinEnv(b, a)
	if !ab.equal(ba) {
		t.Fatalf("join not commutative: %v vs %v", ab, ba)
	}
	if got := ab["x"]; got != one {
		t.Fatalf("agreeing binding x lost: %v", got)
	}
	if _, ok := ab["y"]; ok {
		t.Fatalf("disagreeing binding y kept")
	}
	if _, ok := ab["z"]; ok {
		t.Fatalf("one-sided binding z kept")
	}
	if aa := joinEnv(a, a); !aa.equal(a) {
		t.Fatalf("join not idempotent: %v", aa)
	}
}
