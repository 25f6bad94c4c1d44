package ssa

import (
	"testing"

	"bf4/internal/ir"
	"bf4/internal/smt"
)

// straightLine builds: start -> x=1 -> x=x+1 -> accept.
func straightLine() (*ir.Program, *ir.Var) {
	p := ir.NewProgram("line")
	x := p.NewVar("x", smt.BV(8))
	start := p.NewNode(ir.Nop)
	p.Start = start
	a1 := p.NewNode(ir.Assign)
	a1.Var, a1.Expr = x, p.F.BVConst64(1, 8)
	a2 := p.NewNode(ir.Assign)
	a2.Var, a2.Expr = x, p.F.Add(x.Term, p.F.BVConst64(1, 8))
	acc := p.NewNode(ir.AcceptTerm)
	p.Edge(start, a1)
	p.Edge(a1, a2)
	p.Edge(a2, acc)
	return p, x
}

func TestStraightLineVersions(t *testing.T) {
	p, x := straightLine()
	r := Passify(p)
	var conds []*smt.Term
	for _, n := range p.Topo() {
		if c, ok := r.NodeCond[n]; ok {
			conds = append(conds, c)
		}
	}
	if len(conds) != 2 {
		t.Fatalf("node constraints = %d, want 2", len(conds))
	}
	// First: x#1 == 1. Second: x#2 == x#1 + 1.
	f := p.F
	x1 := f.BVVar("x#1", 8)
	x2 := f.BVVar("x#2", 8)
	if conds[0] != f.Eq(x1, f.BVConst64(1, 8)) {
		t.Errorf("first constraint: %s", conds[0])
	}
	if conds[1] != f.Eq(x2, f.Add(x1, f.BVConst64(1, 8))) {
		t.Errorf("second constraint: %s", conds[1])
	}
	if r.BaseVar[x1] != x || r.BaseVar[x2] != x {
		t.Error("BaseVar must map versions back to x")
	}
}

// diamondAssign builds: start -> br(c) -> (x=1 | x=2) -> join -> accept,
// exercising phi insertion at the join.
func diamondAssign() *ir.Program {
	p := ir.NewProgram("diamond")
	x := p.NewVar("x", smt.BV(8))
	p.NewVar("c", smt.BoolSort)
	start := p.NewNode(ir.Nop)
	p.Start = start
	br := p.NewNode(ir.Branch)
	br.Expr = p.Vars["c"].Term
	a1 := p.NewNode(ir.Assign)
	a1.Var, a1.Expr = x, p.F.BVConst64(1, 8)
	a2 := p.NewNode(ir.Assign)
	a2.Var, a2.Expr = x, p.F.BVConst64(2, 8)
	join := p.NewNode(ir.Nop)
	acc := p.NewNode(ir.AcceptTerm)
	p.Edge(start, br)
	p.Edge(br, a1)
	p.Edge(br, a2)
	p.Edge(a1, join)
	p.Edge(a2, join)
	p.Edge(join, acc)
	return p
}

// fan builds start -> an if-else chain with one arm per element of arms ->
// join -> accept, and returns the join. An arm is the entry of a subgraph
// already built, left where following first successors ends; a nil arm
// becomes a Nop, in place.
func fan(p *ir.Program, arms []*ir.Node) (join *ir.Node) {
	sel := p.NewVar("sel", smt.BV(8))
	join = p.NewNode(ir.Nop)
	at := p.NewNode(ir.Nop)
	p.Start = at
	for i := range arms {
		if arms[i] == nil {
			arms[i] = p.NewNode(ir.Nop)
		}
		if i < len(arms)-1 {
			br := p.NewNode(ir.Branch)
			br.Expr = p.F.Eq(sel.Term, p.F.BVConst64(int64(i), 8))
			p.Edge(at, br)
			at = br
		}
		p.Edge(at, arms[i])
		out := arms[i]
		for len(out.Succs) > 0 {
			out = out.Succs[0]
		}
		p.Edge(out, join)
	}
	p.Edge(join, p.NewNode(ir.AcceptTerm))
	return join
}

func assign(p *ir.Program, v *ir.Var, val int64) *ir.Node {
	n := p.NewNode(ir.Assign)
	n.Var, n.Expr = v, p.F.BVConst64(val, v.Sort.Width)
	return n
}

// mergeEqualities collects the equalities between two versions of one
// variable that r puts on edges: the distinct pairs (later version first),
// and how many edges carry one.
func mergeEqualities(r *Result) (distinct map[[2]*smt.Term]bool, edges int) {
	distinct = map[[2]*smt.Term]bool{}
	for _, c := range r.EdgeCond {
		for _, pair := range r.JoinEqualities(c) {
			distinct[pair] = true
			edges++
		}
	}
	return distinct, edges
}

// TestPhiAtJoin pins the join rule on the shapes it was chosen for: a join
// mints no version, the variable continues as the highest incoming one, and
// only an edge that carries another version is constrained (an unconstrained
// edge has no EdgeCond entry, not a true one) — so joins that see the same
// two versions share one hash-consed equality.
func TestPhiAtJoin(t *testing.T) {
	t.Run("diamond", func(t *testing.T) {
		p := ir.NewProgram("diamond")
		x := p.NewVar("x", smt.BV(8))
		arms := []*ir.Node{assign(p, x, 1), assign(p, x, 2)}
		join := fan(p, arms)
		r := Passify(p)
		x1, x2 := p.F.BVVar("x#1", 8), p.F.BVVar("x#2", 8)
		lo, hi := arms[0], arms[1] // by the version each mints: topological order decides
		if r.NodeCond[lo] != p.F.Eq(x1, lo.Expr) {
			lo, hi = hi, lo
		}
		if got := r.EdgeCond[EdgeKey{lo.ID, join.ID}]; got != p.F.Eq(x2, x1) {
			t.Errorf("edge from the arm that mints x#1: %v, want x#2 = x#1", got)
		}
		if got, ok := r.EdgeCond[EdgeKey{hi.ID, join.ID}]; ok {
			t.Errorf("the edge from the arm that mints x#2 carries the version the join continues with and must have no condition, got %v", got)
		}
		if r.versions[x] != 2 {
			t.Errorf("%d versions of x, want 2: a join mints none", r.versions[x])
		}
	})
	t.Run("nested", func(t *testing.T) {
		// if sel == 0 { if c { x = 1 } }: the inner and the outer join each
		// see x#1 against x.
		p := ir.NewProgram("nested")
		x := p.NewVar("x", smt.BV(8))
		br := p.NewNode(ir.Branch)
		br.Expr = p.NewVar("c", smt.BoolSort).Term
		write, skip, inner := assign(p, x, 1), p.NewNode(ir.Nop), p.NewNode(ir.Nop)
		p.Edge(br, write)
		p.Edge(br, skip)
		p.Edge(write, inner)
		p.Edge(skip, inner)
		fan(p, []*ir.Node{br, nil})
		r := Passify(p)
		distinct, edges := mergeEqualities(r)
		if want := [2]*smt.Term{p.F.BVVar("x#1", 8), x.Term}; len(distinct) != 1 || !distinct[want] || edges != 2 {
			t.Errorf("%d distinct merge equalities on %d edges (%v), want x#1 = x alone, on the two skipping edges", len(distinct), edges, distinct)
		}
	})
	t.Run("one writer of five arms", func(t *testing.T) {
		p := ir.NewProgram("wide")
		x := p.NewVar("x", smt.BV(8))
		arms := []*ir.Node{nil, nil, nil, assign(p, x, 1), nil}
		join := fan(p, arms)
		r := Passify(p)
		if distinct, edges := mergeEqualities(r); len(distinct) != 1 || edges != 4 {
			t.Errorf("%d distinct merge equalities on %d edges, want one, on the four arms that do not write", len(distinct), edges)
		}
		if got, ok := r.EdgeCond[EdgeKey{arms[3].ID, join.ID}]; ok {
			t.Errorf("the writing arm's edge must have no condition, got %v", got)
		}
	})
	t.Run("havoc", func(t *testing.T) {
		p := ir.NewProgram("havoc-arm")
		x := p.NewVar("x", smt.BV(8))
		h := p.NewNode(ir.Havoc)
		h.Var = x
		arms := []*ir.Node{h, nil}
		join := fan(p, arms)
		r := Passify(p)
		if got, ok := r.EdgeCond[EdgeKey{h.ID, join.ID}]; ok {
			t.Errorf("the havoc arm's edge must leave the havoc term free, got %v", got)
		}
		if got, want := r.EdgeCond[EdgeKey{arms[1].ID, join.ID}], p.F.Eq(r.HavocTerm[h], x.Term); got != want {
			t.Errorf("the untouched arm's edge: %v, want %v", got, want)
		}
	})
}

func TestBranchPolarityOnEdges(t *testing.T) {
	p := diamondAssign()
	r := Passify(p)
	var br *ir.Node
	for _, n := range p.Nodes {
		if n.Kind == ir.Branch {
			br = n
		}
	}
	tCond := r.EdgeCond[EdgeKey{br.ID, br.Succs[0].ID}]
	fCond := r.EdgeCond[EdgeKey{br.ID, br.Succs[1].ID}]
	if tCond == nil || fCond == nil {
		t.Fatal("branch edges must carry conditions")
	}
	// Under c=true the true-edge condition holds and the false-edge
	// condition does not.
	env := smt.Env{}
	env.SetBool("c", true)
	if !smt.EvalBool(tCond, env) || smt.EvalBool(fCond, env) {
		t.Fatalf("polarity wrong: t=%s f=%s", tCond, fCond)
	}
}

func TestHavocCreatesFreshUnconstrained(t *testing.T) {
	p := ir.NewProgram("havoc")
	x := p.NewVar("x", smt.BV(8))
	start := p.NewNode(ir.Nop)
	p.Start = start
	a := p.NewNode(ir.Assign)
	a.Var, a.Expr = x, p.F.BVConst64(5, 8)
	h := p.NewNode(ir.Havoc)
	h.Var = x
	use := p.NewNode(ir.Branch)
	use.Expr = p.F.Eq(x.Term, p.F.BVConst64(7, 8))
	acc := p.NewNode(ir.AcceptTerm)
	rej := p.NewNode(ir.RejectTerm)
	p.Edge(start, a)
	p.Edge(a, h)
	p.Edge(h, use)
	p.Edge(use, acc)
	p.Edge(use, rej)
	r := Passify(p)
	ht := r.HavocTerm[h]
	if ht == nil {
		t.Fatal("havoc term missing")
	}
	if _, constrained := r.NodeCond[h]; constrained {
		t.Fatal("havoc must not constrain")
	}
	// The branch must read the havoc version, not the assigned one.
	bc := r.BranchCond[use]
	usesHavoc := false
	for _, v := range bc.Vars(nil) {
		if v == ht {
			usesHavoc = true
		}
	}
	if !usesHavoc {
		t.Fatalf("branch condition %s does not use havoc version %s", bc, ht)
	}
}

func TestPmapBasics(t *testing.T) {
	var m *pmap
	for i := int32(0); i < 100; i++ {
		m = m.set(i, int(i*10))
	}
	for i := int32(0); i < 100; i++ {
		if got := m.get(i); got.(int) != int(i*10) {
			t.Fatalf("get(%d) = %v", i, got)
		}
	}
	if m.get(1000) != nil {
		t.Fatal("missing key must be nil")
	}
	if m.size() != 100 {
		t.Fatalf("size = %d", m.size())
	}
	// Persistence: updating does not mutate the original.
	m2 := m.set(5, 999)
	if m.get(5).(int) != 50 || m2.get(5).(int) != 999 {
		t.Fatal("persistence violated")
	}
}

func TestPmapHistoryIndependence(t *testing.T) {
	var a, b *pmap
	for i := int32(0); i < 50; i++ {
		a = a.set(i, int(i))
	}
	for i := int32(49); i >= 0; i-- {
		b = b.set(i, int(i))
	}
	// Same contents, different insertion orders: diff must be empty.
	if d := diffKeys(a, b, nil); len(d) != 0 {
		t.Fatalf("equal maps diff: %v", d)
	}
}

func TestPmapDiff(t *testing.T) {
	var a *pmap
	for i := int32(0); i < 20; i++ {
		a = a.set(i, int(i))
	}
	b := a.set(3, 999).set(17, 888)
	d := diffKeys(a, b, nil)
	if len(d) != 2 {
		t.Fatalf("diff = %v, want keys 3 and 17", d)
	}
	seen := map[int32]bool{}
	for _, k := range d {
		seen[k] = true
	}
	if !seen[3] || !seen[17] {
		t.Fatalf("diff = %v", d)
	}
	// Keys present in only one map.
	c := a.set(100, 1)
	d = diffKeys(a, c, nil)
	if len(d) != 1 || d[0] != 100 {
		t.Fatalf("one-sided diff = %v", d)
	}
}
