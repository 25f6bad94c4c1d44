package cfg

import (
	"testing"

	"bf4/internal/ir"
	"bf4/internal/smt"
)

// diamond builds: start -> branch -> (a | b) -> join -> exit.
func diamond(t *testing.T) (*ir.Program, map[string]*ir.Node) {
	t.Helper()
	p := ir.NewProgram("diamond")
	nodes := map[string]*ir.Node{}
	mk := func(name string, kind ir.NodeKind) *ir.Node {
		n := p.NewNode(kind)
		n.Comment = name
		nodes[name] = n
		return n
	}
	start := mk("start", ir.Nop)
	br := mk("br", ir.Branch)
	br.Expr = p.F.BoolVar("c")
	a := mk("a", ir.Nop)
	b := mk("b", ir.Nop)
	join := mk("join", ir.Nop)
	exit := mk("exit", ir.AcceptTerm)
	p.Start = start
	p.Edge(start, br)
	p.Edge(br, a)
	p.Edge(br, b)
	p.Edge(a, join)
	p.Edge(b, join)
	p.Edge(join, exit)
	return p, nodes
}

func TestDominatorsDiamond(t *testing.T) {
	p, n := diamond(t)
	d := NewDominators(p)
	cases := []struct{ node, idom string }{
		{"br", "start"},
		{"a", "br"},
		{"b", "br"},
		{"join", "br"},
		{"exit", "join"},
	}
	for _, c := range cases {
		if got := d.Idom(n[c.node]); got != n[c.idom] {
			t.Errorf("idom(%s) = %v, want %s", c.node, got, c.idom)
		}
	}
	if d.Idom(n["start"]) != nil {
		t.Error("root must have no idom")
	}
	if !d.Dominates(n["br"], n["exit"]) {
		t.Error("br must dominate exit")
	}
	if d.Dominates(n["a"], n["exit"]) {
		t.Error("a must not dominate exit")
	}
	if !d.Dominates(n["a"], n["a"]) {
		t.Error("dominance is reflexive")
	}
}

func TestDominatingAssertPoint(t *testing.T) {
	p := ir.NewProgram("ap")
	start := p.NewNode(ir.Nop)
	p.Start = start
	ap := p.NewNode(ir.AssertPoint)
	inst := &ir.TableInstance{Table: &ir.Table{Name: "t"}, ActIndex: map[string]int{}}
	ap.Instance = inst
	inst.Apply = ap
	br := p.NewNode(ir.Branch)
	br.Expr = p.F.BoolVar("c")
	bug := p.NewNode(ir.BugTerm)
	okN := p.NewNode(ir.AcceptTerm)
	p.Edge(start, ap)
	p.Edge(ap, br)
	p.Edge(br, bug)
	p.Edge(br, okN)
	d := NewDominators(p)
	if got := DominatingAssertPoint(d, bug); got != ap {
		t.Fatalf("dominating assert point = %v, want ap", got)
	}
	if got := DominatingAssertPoint(d, ap); got != nil {
		t.Fatalf("assert point itself has no dominating AP, got %v", got)
	}
}

// TestDominatorsOnRealProgram sanity-checks on a compiled corpus-like CFG:
// the start node dominates every reachable node.
func TestDominatorsStartDominatesAll(t *testing.T) {
	p, _ := diamond(t)
	d := NewDominators(p)
	for _, n := range p.Topo() {
		if !d.Dominates(p.Start, n) {
			t.Errorf("start must dominate n%d", n.ID)
		}
	}
	_ = smt.BoolSort
}
