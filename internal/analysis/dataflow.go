// Package analysis is bf4's compile-time static-analysis layer: a
// dataflow framework over the IR control-flow graph plus four concrete
// analyzers (constant propagation & reachability, dead-write liveness,
// information-flow labels, table-entry lint). It has one entry point per
// purpose:
//
//   - Discharge, the verifier's pre-pass, run by every verification
//     round: bug checks constant propagation proves unreachable are
//     discharged before the weakest-precondition queries ever reach the
//     SMT solver, shrinking the solver workload without changing any
//     verdict (the pre-pass is sound: it only discharges a query when
//     every concrete execution provably avoids the bug node, i.e. exactly
//     when the solver would answer unsat);
//   - Lint, the standalone linter (`bf4 lint`): definite static bugs (a
//     read of a header that is invalid on every path), constant
//     conditions, dead stores, duplicate/shadowed table keys and
//     unreferenced actions as human- or JSON-rendered diagnostics with
//     stable source positions;
//   - RunTaint, the label half of `bf4 lint -taint`: sinks the labels
//     cannot prove clean, handed to the solver as alarms.
//
// The IR is acyclic (parser loops are unrolled; ir.Program.Topo panics on
// a cycle), so each solver is one walk in topological order: a node is
// visited once, after every predecessor (forward) or successor
// (backward), and its fact is final when it is computed.
package analysis

import (
	"slices"

	"bf4/internal/ir"
)

// Fact is an abstract dataflow fact. Concrete analyses define their own
// fact representation; nil is reserved for "unreachable" (bottom) and
// must not be used as a legitimate fact value.
type Fact interface{}

// Analysis is a dataflow problem over the IR graph. Facts flow forward
// (entry to exit) or backward (exit to entry) depending on which solver
// is used.
type Analysis interface {
	// Boundary is the fact at the flow entry: the start node's input for
	// forward problems, every terminal's output for backward ones.
	Boundary() Fact
	// Transfer computes the node's output fact from its input fact.
	// Implementations must not mutate in; return a fresh value (or in
	// itself when nothing changed).
	Transfer(n *ir.Node, in Fact) Fact
	// Join combines two facts at a merge point (least upper bound).
	Join(a, b Fact) Fact
}

// EdgeRefiner is an optional extension for forward analyses that can
// strengthen (or kill) the fact flowing along a specific branch edge.
// Returning nil marks the edge infeasible: nothing flows along it, and a
// node all of whose incoming edges are infeasible is unreachable.
type EdgeRefiner interface {
	// FlowEdge refines out as it flows from n to n.Succs[succIdx].
	FlowEdge(n *ir.Node, succIdx int, out Fact) Fact
}

// Facts is the solved result of a dataflow problem.
type Facts struct {
	// In and Out map each node to its input/output fact. A node absent
	// from In was never reached by any feasible path (bottom).
	In, Out map[*ir.Node]Fact
}

// Reached reports whether the solver found any feasible path to n.
func (fs *Facts) Reached(n *ir.Node) bool {
	_, ok := fs.In[n]
	return ok
}

// SolveForward solves a forward dataflow problem in one pass over
// p.Topo(). A node's input is Boundary at p.Start, else the join of its
// feasible incoming edge facts in Preds order. If a implements
// EdgeRefiner, each edge fact is refined (or pruned); a node no feasible
// edge reaches stays out of In and Out and is reported unreachable by
// Facts.Reached.
func SolveForward(p *ir.Program, a Analysis) *Facts {
	refiner, _ := a.(EdgeRefiner)
	fs := &Facts{In: map[*ir.Node]Fact{}, Out: map[*ir.Node]Fact{}}
	// edges[n][i] is the fact on the edge n → n.Succs[i], nil when the
	// edge is infeasible. ir.Build never gives a node the same successor
	// twice, so a predecessor and its successor name the edge.
	edges := map[*ir.Node][]Fact{}
	for _, n := range p.Topo() {
		var in Fact
		if n == p.Start {
			in = a.Boundary()
		}
		for _, pr := range n.Preds {
			ef := edges[pr]
			if ef == nil {
				continue // pr is unreached (or not reachable from p.Start)
			}
			switch f := ef[slices.Index(pr.Succs, n)]; {
			case f == nil:
			case in == nil:
				in = f
			default:
				in = a.Join(in, f)
			}
		}
		if in == nil {
			continue
		}
		fs.In[n] = in
		out := a.Transfer(n, in)
		fs.Out[n] = out
		ef := make([]Fact, len(n.Succs))
		for i := range n.Succs {
			ef[i] = out
			if refiner != nil {
				ef[i] = refiner.FlowEdge(n, i, out)
			}
		}
		edges[n] = ef
	}
	return fs
}

// SolveBackward solves a backward dataflow problem (e.g. liveness) in one
// pass over p.Topo() in reverse. In the result, In[n] is the fact
// *before* n executes and Out[n] the fact after: Boundary for a terminal
// (node without successors), else the join of the successors' In in
// Succs order. Every node reachable from p.Start gets both. Edge
// refinement is not applied in backward mode.
func SolveBackward(p *ir.Program, a Analysis) *Facts {
	fs := &Facts{In: map[*ir.Node]Fact{}, Out: map[*ir.Node]Fact{}}
	topo := p.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		var out Fact
		if len(n.Succs) == 0 {
			out = a.Boundary()
		}
		for j, s := range n.Succs {
			if j == 0 {
				out = fs.In[s]
			} else {
				out = a.Join(out, fs.In[s])
			}
		}
		fs.Out[n] = out
		fs.In[n] = a.Transfer(n, out)
	}
	return fs
}
