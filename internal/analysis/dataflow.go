// Package analysis is bf4's compile-time static-analysis layer: a
// generic dataflow framework over the IR control-flow graph plus three
// concrete analyzers (constant propagation & reachability, dead-write
// detection, table-entry lint). It has one entry point per purpose:
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
//     stable source positions.
//
// The framework is deliberately more general than the acyclic IR
// requires: the worklist solver iterates in reverse postorder and runs
// to a fixpoint, so loop-shaped graphs (hand-built in tests, or future
// IR extensions with cycles) converge as long as the lattice has finite
// height and transfer functions are monotone.
package analysis

import (
	"container/heap"

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
	// Equal reports whether two facts are equal (fixpoint detection).
	Equal(a, b Fact) bool
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
	// Iterations counts node-transfer applications, a measure of
	// fixpoint effort (equals the node count on acyclic graphs unless
	// edge refinement prunes paths).
	Iterations int
}

// Reached reports whether the solver found any feasible path to n.
func (fs *Facts) Reached(n *ir.Node) bool {
	_, ok := fs.In[n]
	return ok
}

// rpoIndex computes a reverse-postorder numbering of the graph rooted at
// start, following succs. Unlike ir.Program.Topo it tolerates cycles
// (back edges simply do not extend the DFS), which is what lets the
// solver run on loop-shaped graphs.
func rpoIndex(start *ir.Node, backward bool) (order []*ir.Node, index map[*ir.Node]int) {
	next := func(n *ir.Node) []*ir.Node { return n.Succs }
	if backward {
		next = func(n *ir.Node) []*ir.Node { return n.Preds }
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*ir.Node]int8{}
	type frame struct {
		n *ir.Node
		i int
	}
	var post []*ir.Node
	stack := []frame{{start, 0}}
	color[start] = gray
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := next(fr.n)
		if fr.i < len(succs) {
			s := succs[fr.i]
			fr.i++
			if color[s] == white {
				color[s] = gray
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		color[fr.n] = black
		post = append(post, fr.n)
		stack = stack[:len(stack)-1]
	}
	order = make([]*ir.Node, len(post))
	index = make(map[*ir.Node]int, len(post))
	for i, n := range post {
		order[len(post)-1-i] = n
	}
	for i, n := range order {
		index[n] = i
	}
	return order, index
}

// nodeHeap is a worklist ordered by reverse-postorder index, so nodes
// are processed in an order that minimizes re-iteration.
type nodeHeap struct {
	nodes []*ir.Node
	index map[*ir.Node]int
	on    map[*ir.Node]bool
}

func (h *nodeHeap) Len() int           { return len(h.nodes) }
func (h *nodeHeap) Less(i, j int) bool { return h.index[h.nodes[i]] < h.index[h.nodes[j]] }
func (h *nodeHeap) Swap(i, j int)      { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *nodeHeap) Push(x interface{}) { h.nodes = append(h.nodes, x.(*ir.Node)) }
func (h *nodeHeap) Pop() interface{} {
	n := h.nodes[len(h.nodes)-1]
	h.nodes = h.nodes[:len(h.nodes)-1]
	return n
}

func (h *nodeHeap) push(n *ir.Node) {
	if !h.on[n] {
		h.on[n] = true
		heap.Push(h, n)
	}
}

func (h *nodeHeap) pop() *ir.Node {
	n := heap.Pop(h).(*ir.Node)
	h.on[n] = false
	return n
}

type edgeKey struct{ from, to int }

// SolveForward runs a forward dataflow problem from start to fixpoint.
// If a implements EdgeRefiner, per-edge refinement (including edge
// pruning) is applied; nodes no feasible edge reaches stay out of the
// result's In map and are reported unreachable by Facts.Reached.
func SolveForward(start *ir.Node, a Analysis) *Facts {
	refiner, _ := a.(EdgeRefiner)
	_, index := rpoIndex(start, false)
	fs := &Facts{In: map[*ir.Node]Fact{}, Out: map[*ir.Node]Fact{}}
	// edgeOut[from→to] is the (refined) fact on that edge; absent means
	// nothing has flowed yet or the edge is infeasible.
	edgeOut := map[edgeKey]Fact{}

	wl := &nodeHeap{index: index, on: map[*ir.Node]bool{}}
	heap.Init(wl)
	fs.In[start] = a.Boundary()
	wl.push(start)

	// refreshIn recomputes a node's input as the join over all its
	// currently-feasible incoming edges, requeueing it on change.
	refreshIn := func(s *ir.Node) {
		var sin Fact
		have := false
		if s == start {
			// The boundary fact acts as a permanent virtual edge into the
			// start node (it may also have real preds in loop-shaped
			// graphs).
			sin, have = a.Boundary(), true
		}
		for _, p := range s.Preds {
			pf, ok := edgeOut[edgeKey{p.ID, s.ID}]
			if !ok {
				continue
			}
			if !have {
				sin, have = pf, true
			} else {
				sin = a.Join(sin, pf)
			}
		}
		old, hadOld := fs.In[s]
		switch {
		case !have:
			if hadOld {
				delete(fs.In, s)
				wl.push(s)
			}
		case !hadOld || !a.Equal(old, sin):
			fs.In[s] = sin
			wl.push(s)
		}
	}

	for wl.Len() > 0 {
		n := wl.pop()
		in, ok := fs.In[n]
		if !ok {
			// The node lost all feasible incoming edges (edge pruning
			// made it unreachable): retract its own contributions.
			delete(fs.Out, n)
			for _, s := range n.Succs {
				k := edgeKey{n.ID, s.ID}
				if _, had := edgeOut[k]; had {
					delete(edgeOut, k)
					refreshIn(s)
				}
			}
			continue
		}
		fs.Iterations++
		out := a.Transfer(n, in)
		fs.Out[n] = out
		for i, s := range n.Succs {
			ef := out
			if refiner != nil {
				ef = refiner.FlowEdge(n, i, out)
			}
			k := edgeKey{n.ID, s.ID}
			if ef == nil {
				delete(edgeOut, k)
			} else {
				edgeOut[k] = ef
			}
			refreshIn(s)
		}
	}
	return fs
}

// SolveBackward runs a backward dataflow problem (e.g. liveness): facts
// flow from the terminals toward start. In the result, In[n] is the fact
// *before* n executes and Out[n] the fact after; Boundary seeds the
// output of every terminal (node without successors). Edge refinement is
// not applied in backward mode.
func SolveBackward(start *ir.Node, a Analysis) *Facts {
	order, index := rpoIndex(start, false)
	fs := &Facts{In: map[*ir.Node]Fact{}, Out: map[*ir.Node]Fact{}}

	// Process in postorder (reverse of forward RPO) so most nodes see
	// their successors solved first.
	revIndex := make(map[*ir.Node]int, len(order))
	for i, n := range order {
		revIndex[n] = len(order) - 1 - i
	}
	wl := &nodeHeap{index: revIndex, on: map[*ir.Node]bool{}}
	heap.Init(wl)
	for _, n := range order {
		wl.push(n)
	}

	for wl.Len() > 0 {
		n := wl.pop()
		var out Fact
		if len(n.Succs) == 0 {
			out = a.Boundary()
		} else {
			have := false
			for _, s := range n.Succs {
				sf, ok := fs.In[s]
				if !ok {
					continue
				}
				if !have {
					out, have = sf, true
				} else {
					out = a.Join(out, sf)
				}
			}
			if !have {
				continue // successors not yet solved (cycle warm-up)
			}
		}
		fs.Iterations++
		fs.Out[n] = out
		in := a.Transfer(n, out)
		old, had := fs.In[n]
		if had && a.Equal(old, in) {
			continue
		}
		fs.In[n] = in
		for _, p := range n.Preds {
			if _, ok := index[p]; ok {
				wl.push(p)
			}
		}
	}
	return fs
}
