package analysis

import (
	"fmt"

	"bf4/internal/ir"
	"bf4/internal/p4/token"
)

// validityKind reports whether a bug class is guarded by a header-validity
// condition: its definite findings carry the "header-validity" label.
func validityKind(k ir.BugKind) bool {
	switch k {
	case ir.BugInvalidHeaderRead, ir.BugInvalidHeaderWrite,
		ir.BugInvalidKeyRead, ir.BugHeaderOverwrite:
		return true
	}
	return false
}

// guardOf locates the instrumentation branch guarding a bug terminal. The
// builder lowers every check as branch(badCond) with Succs[0] → nop → bug
// terminal, so the guard is the bug node's grandparent. ok is false when
// the shape does not match (defensive; all current checks match).
func guardOf(bn *ir.Node) (g *ir.Node, ok bool) {
	if len(bn.Preds) != 1 {
		return nil, false
	}
	nop := bn.Preds[0]
	if len(nop.Preds) != 1 {
		return nil, false
	}
	g = nop.Preds[0]
	if g.Kind != ir.Branch || len(g.Succs) == 0 || g.Succs[0] != nop {
		return nil, false
	}
	return g, true
}

// FallbackPos returns n's source position, or — for synthesized nodes
// lowered without one (pipeline-exit checks, instrumentation epilogues)
// — the position of the nearest preceding node that has one, so
// diagnostics anchor to the enclosing construct instead of 0:0. The
// backward walk is breadth-first over predecessor lists (deterministic:
// Preds order is builder emission order) and bounded.
func FallbackPos(n *ir.Node) token.Pos {
	if n.Pos.IsValid() {
		return n.Pos
	}
	const bound = 256
	seen := map[*ir.Node]bool{n: true}
	frontier := []*ir.Node{n}
	for len(frontier) > 0 && len(seen) < bound {
		var next []*ir.Node
		for _, f := range frontier {
			for _, p := range f.Preds {
				if seen[p] {
					continue
				}
				seen[p] = true
				if p.Pos.IsValid() {
					return p.Pos
				}
				next = append(next, p)
			}
		}
		frontier = next
	}
	return token.Pos{}
}

// definiteBugLint reports bug sites whose guard condition folds to true
// under the solved facts: every execution reaching the site trips the
// check, so it is a static bug needing no solver query. Validity bug
// classes are labelled header-validity, the rest constprop. Sites without
// a source position (synthetic pipeline-exit checks) anchor to the
// enclosing construct via FallbackPos; only sites with no position
// anywhere upstream are skipped.
func definiteBugLint(p *ir.Program, fs *Facts) []Diagnostic {
	var ds []Diagnostic
	for _, bn := range p.Bugs {
		pos := FallbackPos(bn)
		if !pos.IsValid() {
			continue
		}
		g, ok := guardOf(bn)
		if !ok || !fs.Reached(g) {
			continue
		}
		if c := foldedCond(p.F, fs, g); c != nil && c.IsTrue() {
			pass := "constprop"
			if validityKind(bn.Bug) {
				pass = "header-validity"
			}
			ds = append(ds, Diagnostic{
				Pass:     pass,
				Severity: SevError,
				Line:     pos.Line,
				Col:      pos.Col,
				Msg:      fmt.Sprintf("definite %s: %s (every execution reaching this point trips it)", bn.Bug, bn.Comment),
			})
		}
	}
	return ds
}

// dischargeSet returns the CFG-reachable bug nodes the solved facts prove
// unreachable under every concrete execution — edge pruning starved them
// of all feasible incoming paths. For these the weakest-precondition
// reach condition is unsatisfiable, so the solver query can be skipped
// with verdict "unreachable" guaranteed.
func dischargeSet(p *ir.Program, cfgReach map[*ir.Node]bool, fs *Facts) map[*ir.Node]bool {
	out := make(map[*ir.Node]bool)
	for _, bn := range p.Bugs {
		if cfgReach[bn] && !fs.Reached(bn) {
			out[bn] = true
		}
	}
	return out
}
