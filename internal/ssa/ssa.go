// Package ssa passifies the IR: it converts the acyclic CFG to static
// single assignment form (paper §4.1, following Flanagan–Saxe) and turns
// every assignment into an equality constraint over versioned variables.
// Only assignments and havocs mint versions. A merge point has no phi node
// and no version of its own: a variable whose incoming versions differ
// continues as the highest of them (Barnett–Leino's passive form), and each
// in-edge that carries another one equates the two. Versions are minted in
// topological order and never decrease along a path, so a path constrains
// every version at most once — by its assignment or by one such edge — and
// downstream reachability conditions (internal/wp) are linear in program
// size when built over the shared term DAG.
package ssa

import (
	"fmt"
	"slices"

	"bf4/internal/ir"
	"bf4/internal/smt"
)

// EdgeKey identifies a CFG edge by node IDs.
type EdgeKey struct {
	From, To int
}

// Result is the passified form of a program.
type Result struct {
	P *ir.Program

	// NodeCond is the constraint a node contributes when executed
	// (assignment equalities); absent means true.
	NodeCond map[*ir.Node]*smt.Term
	// EdgeCond is the constraint on taking an edge: branch polarity
	// conjoined with merge (phi) equalities; absent means true.
	EdgeCond map[EdgeKey]*smt.Term
	// BranchCond is the versioned branch condition of each branch node.
	BranchCond map[*ir.Node]*smt.Term
	// HavocTerm is the fresh versioned term a Havoc node introduced.
	HavocTerm map[*ir.Node]*smt.Term
	// BaseVar maps every versioned term back to its IR variable.
	BaseVar map[*smt.Term]*ir.Var

	varByIdx []*ir.Var
	varIdx   map[*ir.Var]int32
	versions map[*ir.Var]int
	// versionOf numbers every minted term; a variable's own term, absent,
	// is version 0.
	versionOf map[*smt.Term]int
	f         *smt.Factory
}

// Passify converts p to passified SSA form.
func Passify(p *ir.Program) *Result {
	r := newResult(p)
	outState := map[*ir.Node]*pmap{}
	for _, n := range p.Topo() {
		outState[n] = r.transfer(n, r.mergeState(n, outState))
	}
	return r
}

func newResult(p *ir.Program) *Result {
	r := &Result{
		P:          p,
		NodeCond:   map[*ir.Node]*smt.Term{},
		EdgeCond:   map[EdgeKey]*smt.Term{},
		BranchCond: map[*ir.Node]*smt.Term{},
		HavocTerm:  map[*ir.Node]*smt.Term{},
		BaseVar:    map[*smt.Term]*ir.Var{},
		varIdx:     map[*ir.Var]int32{},
		versions:   map[*ir.Var]int{},
		versionOf:  map[*smt.Term]int{},
		f:          p.F,
	}
	for i, v := range p.VarList() {
		r.varIdx[v] = int32(i)
		r.varByIdx = append(r.varByIdx, v)
		r.BaseVar[v.Term] = v
	}
	return r
}

// transfer records the constraints n contributes when entered in state in
// and returns the state it leaves.
func (r *Result) transfer(n *ir.Node, in *pmap) *pmap {
	switch n.Kind {
	case ir.Assign:
		rhs := r.subst(n.Expr, in)
		nv := r.freshVersion(n.Var)
		r.NodeCond[n] = r.f.Eq(nv, rhs)
		return in.set(r.varIdx[n.Var], nv)
	case ir.Havoc:
		nv := r.freshVersion(n.Var)
		r.HavocTerm[n] = nv
		return in.set(r.varIdx[n.Var], nv)
	case ir.Branch:
		cond := r.subst(n.Expr, in)
		r.BranchCond[n] = cond
		if len(n.Succs) == 2 {
			r.conjoinEdge(EdgeKey{n.ID, n.Succs[0].ID}, cond)
			r.conjoinEdge(EdgeKey{n.ID, n.Succs[1].ID}, r.f.Not(cond))
		}
	}
	return in
}

// termOf returns the current versioned term of v in state.
func (r *Result) termOf(state *pmap, v *ir.Var) *smt.Term {
	if got := state.get(r.varIdx[v]); got != nil {
		return got.(*smt.Term)
	}
	return v.Term
}

func (r *Result) freshVersion(v *ir.Var) *smt.Term {
	r.versions[v]++
	t := r.f.Var(fmt.Sprintf("%s#%d", v.Name, r.versions[v]), v.Sort)
	r.BaseVar[t] = v
	r.versionOf[t] = r.versions[v]
	return t
}

// subst replaces version-0 variables in e with their current versions.
func (r *Result) subst(e *smt.Term, state *pmap) *smt.Term {
	if state == nil {
		return e
	}
	m := map[*smt.Term]*smt.Term{}
	for _, vt := range e.Vars(nil) {
		v := r.BaseVar[vt]
		if v == nil || vt != v.Term {
			continue // already a versioned term (shouldn't occur in IR exprs)
		}
		if cur := r.termOf(state, v); cur != vt {
			m[vt] = cur
		}
	}
	if len(m) == 0 {
		return e
	}
	return smt.Substitute(r.f, e, m)
}

func (r *Result) conjoinEdge(k EdgeKey, c *smt.Term) {
	if old, ok := r.EdgeCond[k]; ok {
		c = r.f.And(old, c)
	}
	r.EdgeCond[k] = c
}

// joinInputs returns the predecessors of n whose out-states n merges and,
// in index order, the variables those states disagree on. No variables means
// n continues in its first predecessor's state (nil with no predecessor).
func joinInputs(n *ir.Node, outState map[*ir.Node]*pmap) (preds []*ir.Node, differ []int32) {
	// Consider only predecessors already processed (reachable ones; the
	// topological order guarantees all reachable preds come first).
	for _, p := range n.Preds {
		if _, ok := outState[p]; ok {
			preds = append(preds, p)
		}
	}
	// Terminals never read state; skip the merge work.
	switch n.Kind {
	case ir.AcceptTerm, ir.RejectTerm, ir.UnreachTerm, ir.BugTerm:
		return preds, nil
	}
	for i := 1; i < len(preds); i++ {
		differ = diffKeys(outState[preds[0]], outState[preds[i]], differ)
	}
	slices.Sort(differ)
	return preds, slices.Compact(differ)
}

// mergeState computes the incoming state of n from its predecessors'
// out-states. A variable they disagree on continues as the highest incoming
// version, and every edge that carries another one equates the two. The
// highest one was minted by an assignment or havoc between the join's
// dominator and the join, and a path into an edge that carries a lower one
// cannot have crossed that node or an earlier edge equating it (either would
// have left it in the path's state), so no path constrains a version twice.
// That is all the passive form needs; it is also why the choice may not be a
// constant or a version live into the dominator, which every path has
// already constrained or read.
func (r *Result) mergeState(n *ir.Node, outState map[*ir.Node]*pmap) *pmap {
	preds, differ := joinInputs(n, outState)
	if len(preds) == 0 {
		return nil
	}
	merged := outState[preds[0]]
	if len(differ) == 0 {
		return merged
	}
	incoming := make([]*smt.Term, len(preds))
	for _, k := range differ {
		v := r.varByIdx[k]
		for i, p := range preds {
			incoming[i] = r.termOf(outState[p], v)
		}
		top := slices.MaxFunc(incoming, func(a, b *smt.Term) int { return r.versionOf[a] - r.versionOf[b] })
		merged = merged.set(k, top)
		for i, p := range preds {
			if incoming[i] != top {
				r.conjoinEdge(EdgeKey{p.ID, n.ID}, r.f.Eq(top, incoming[i]))
			}
		}
	}
	return merged
}
