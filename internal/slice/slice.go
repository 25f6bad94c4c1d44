// Package slice computes the program slice relevant to bug reachability
// (paper §4.1): the union of control dependences (branches on paths to
// bugs) and data dependences (assignments transitively feeding those
// branch conditions), as in PDG-based slicing [Horwitz–Reps–Binkley].
// Assignments outside the slice contribute no constraint to the
// reachability formulas, which is the paper's main model-checking
// speed-up (switch.p4: 17155 → 7087 instructions, 36 s → 11 s).
package slice

import (
	"bf4/internal/ir"
	"bf4/internal/smt"
)

// Stats reports the slicing ablation numbers for the evaluation harness.
type Stats struct {
	TotalInstructions int
	SliceInstructions int
}

// WRTBugs returns the set of Assign/Havoc nodes whose constraints are
// relevant to reaching any bug node, plus statistics. Pass the result as
// the keep set of wp.Compute.
func WRTBugs(p *ir.Program) (keep map[*ir.Node]bool, stats Stats) {
	return wrt(p, p.Bugs)
}

// WRTNodes slices with respect to an arbitrary set of target nodes.
func WRTNodes(p *ir.Program, targets []*ir.Node) (keep map[*ir.Node]bool, stats Stats) {
	return wrt(p, targets)
}

func wrt(p *ir.Program, targets []*ir.Node) (map[*ir.Node]bool, Stats) {
	reachable := p.Reachable()
	stats := Stats{TotalInstructions: p.NumInstructions()}

	// Backward closure: nodes from which some target is reachable.
	canReach := map[*ir.Node]bool{}
	var stack []*ir.Node
	for _, t := range targets {
		if reachable[t] && !canReach[t] {
			canReach[t] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pr := range n.Preds {
			if reachable[pr] && !canReach[pr] {
				canReach[pr] = true
				stack = append(stack, pr)
			}
		}
	}

	// Flow-sensitive backward liveness restricted to the canReach region.
	// reach(target) contains exactly the branch conditions along paths to
	// a target, so branches in the region generate uses; an assignment
	// contributes (keep) iff its variable is live-out, i.e. some later
	// condition on a path to a target reads it. One reverse-topological
	// pass suffices on the acyclic CFG. A live set is a bitset over the
	// program's variables in declaration order, one a node, never written
	// again once it is the node's.
	vars := p.VarList()
	index := make(map[*ir.Var]int, len(vars))
	for i, v := range vars {
		index[v] = i
	}
	words := (len(vars) + 63) / 64
	liveIn := map[*ir.Node][]uint64{}
	keep := map[*ir.Node]bool{}
	use := func(e *smt.Term, live []uint64) {
		for _, vt := range e.Vars(nil) {
			if v, ok := p.Vars[vt.Name()]; ok {
				live[index[v]/64] |= 1 << (index[v] % 64)
			}
		}
	}
	// kill reports whether n's variable was live and leaves it dead.
	kill := func(n *ir.Node, live []uint64) bool {
		w, bit := index[n.Var]/64, uint64(1)<<(index[n.Var]%64)
		was := live[w]&bit != 0
		live[w] &^= bit
		return was
	}
	topo := p.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if !canReach[n] {
			continue
		}
		live := make([]uint64, words)
		for _, s := range n.Succs {
			for w, bits := range liveIn[s] {
				live[w] |= bits
			}
		}
		switch n.Kind {
		case ir.Branch:
			use(n.Expr, live)
			keep[n] = true
		case ir.Assign:
			if kill(n, live) {
				keep[n] = true
				use(n.Expr, live)
			}
		case ir.Havoc:
			if kill(n, live) {
				keep[n] = true
			}
		case ir.AssertPoint:
			keep[n] = true
		}
		liveIn[n] = live
	}

	stats.SliceInstructions = len(keep)
	return keep, stats
}
