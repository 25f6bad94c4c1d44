// Package wp computes reachability conditions over the passified IR
// (paper §4.1): iterating nodes in topological order, it propagates each
// node's condition to its successors — conjoining edge constraints
// (branch polarity + merge equalities) and node constraints (assignment
// equalities) — and disjoins at merge points. The result, built over the
// hash-consed term DAG, gives for every node n a formula reach(n) that is
// satisfiable iff some input packet and table state drives execution to n.
//
// A slice (set of assignment nodes whose constraints are irrelevant to
// bug reachability, computed by internal/slice) can be supplied; sliced
// assignments contribute `true`, shrinking the formulas the solver sees.
package wp

import (
	"bf4/internal/ir"
	"bf4/internal/smt"
	"bf4/internal/ssa"
)

// Reach holds per-node reachability conditions.
type Reach struct {
	P    *ir.Program
	Pass *ssa.Result

	// Cond maps each reachable node to its reachability condition.
	Cond map[*ir.Node]*smt.Term
	// OK is the disjunction of the good terminals' conditions (accept and
	// reject) — the paper's OK formula.
	OK *smt.Term
	// DontCareReach is the disjunction of reach conditions of dontCare
	// nodes; Infer constrains OK with its negation (paper §4.2).
	DontCareReach *smt.Term
}

// Compute propagates reachability conditions. keep, when non-nil,
// restricts which Assign nodes contribute constraints (the slice); nil
// means all contribute.
func Compute(p *ir.Program, pass *ssa.Result, keep map[*ir.Node]bool) *Reach {
	f := p.F
	r := &Reach{
		P:             p,
		Pass:          pass,
		Cond:          make(map[*ir.Node]*smt.Term, len(p.Nodes)),
		OK:            f.False(),
		DontCareReach: f.False(),
	}
	// incoming accumulates the disjunction of (pred-out ∧ edge) terms.
	incoming := map[*ir.Node]*smt.Term{}
	topo := p.Topo()
	for _, n := range topo {
		var cond *smt.Term
		if n == p.Start {
			cond = f.True()
		} else {
			cond = incoming[n]
			if cond == nil {
				cond = f.False()
			}
		}
		r.Cond[n] = cond

		switch n.Kind {
		case ir.AcceptTerm, ir.RejectTerm:
			r.OK = f.Or(r.OK, cond)
		case ir.DontCare:
			r.DontCareReach = f.Or(r.DontCareReach, cond)
		}

		// Out condition folds in the node's own constraint.
		out := cond
		if nc, ok := pass.NodeCond[n]; ok {
			if keep == nil || keep[n] {
				out = f.And(out, nc)
			}
		}
		for _, s := range n.Succs {
			t := out
			if ec, ok := pass.EdgeCond[ssa.EdgeKey{From: n.ID, To: s.ID}]; ok {
				t = f.And(t, ec)
			}
			if prev, ok := incoming[s]; ok {
				incoming[s] = f.Or(prev, t)
			} else {
				incoming[s] = t
			}
		}
	}
	return r
}
