// Package cfg provides control-flow-graph analyses over the IR: the
// dominator tree (Cooper–Harvey–Kennedy) and dominance queries (the paper
// computes which assert point dominates each bug).
package cfg

import (
	"bf4/internal/ir"
)

// Dominators holds an immediate-dominator tree over the nodes reachable
// from the root.
type Dominators struct {
	idom  map[*ir.Node]*ir.Node
	order map[*ir.Node]int // reverse postorder index
}

// NewDominators computes the dominator tree of the graph rooted at
// p.Start.
func NewDominators(p *ir.Program) *Dominators {
	order := p.Topo()
	d := &Dominators{idom: map[*ir.Node]*ir.Node{}, order: map[*ir.Node]int{}}
	for i, n := range order {
		d.order[n] = i
	}
	root := order[0]
	d.idom[root] = root
	changed := true
	for changed {
		changed = false
		for _, n := range order[1:] {
			var newIdom *ir.Node
			for _, pred := range n.Preds {
				if _, ok := d.idom[pred]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = pred
				} else {
					newIdom = d.intersect(pred, newIdom)
				}
			}
			if newIdom == nil {
				continue
			}
			if d.idom[n] != newIdom {
				d.idom[n] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *Dominators) intersect(a, b *ir.Node) *ir.Node {
	for a != b {
		for d.order[a] > d.order[b] {
			a = d.idom[a]
		}
		for d.order[b] > d.order[a] {
			b = d.idom[b]
		}
	}
	return a
}

// Idom returns the immediate dominator of n (nil for the root or
// unreachable nodes).
func (d *Dominators) Idom(n *ir.Node) *ir.Node {
	m := d.idom[n]
	if m == n {
		return nil
	}
	return m
}

// Dominates reports whether a dominates b (reflexively).
func (d *Dominators) Dominates(a, b *ir.Node) bool {
	for n := b; n != nil; {
		if n == a {
			return true
		}
		m := d.idom[n]
		if m == n || m == nil {
			return false
		}
		n = m
	}
	return false
}

// DominatingAssertPoint returns the nearest assert point (table apply)
// that dominates n, or nil. This implements the paper's bug→assert-point
// assignment (footnote 2: dominance means all runs to the bug pass
// through the assert point).
func DominatingAssertPoint(d *Dominators, n *ir.Node) *ir.Node {
	for m := d.idom[n]; m != nil; {
		if m.Kind == ir.AssertPoint {
			return m
		}
		next := d.idom[m]
		if next == m {
			return nil
		}
		m = next
	}
	return nil
}
