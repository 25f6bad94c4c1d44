package analysis

import (
	"fmt"
	"strings"

	"bf4/internal/ir"
	"bf4/internal/p4/token"
	"bf4/internal/smt"
)

// liveSet is the liveness fact: the set of variable names that may still
// be read downstream.
type liveSet map[string]bool

// liveness is the backward may-live analysis behind dead-write detection.
// The boundary (live at pipeline exit) is every variable except
// user-metadata: headers, their validity bits and standard metadata are
// externally observable (deparsing/emit is implicit in the lowering), so
// only writes to `meta.*` locals and control-block temporaries can be
// proven dead at exit.
type liveness struct {
	boundary liveSet
}

// NewLiveness returns the dead-write liveness analysis for p.
func NewLiveness(p *ir.Program) Analysis {
	b := make(liveSet)
	for name := range p.Vars {
		if !strings.HasPrefix(name, "meta.") {
			b[name] = true
		}
	}
	return &liveness{boundary: b}
}

func (l *liveness) Boundary() Fact { return l.boundary }

func (l *liveness) Transfer(n *ir.Node, out Fact) Fact {
	o := out.(liveSet)
	var kill string
	var gen *smt.Term
	switch n.Kind {
	case ir.Assign:
		kill, gen = n.Var.Name, n.Expr
	case ir.Havoc:
		kill = n.Var.Name
	case ir.Branch:
		gen = n.Expr
	default:
		return o
	}
	in := make(liveSet, len(o)+4)
	for k := range o {
		in[k] = true
	}
	delete(in, kill)
	if gen != nil {
		for _, v := range gen.Vars(nil) {
			in[v.Name()] = true
		}
	}
	return in
}

func (l *liveness) Join(a, b Fact) Fact {
	x, y := a.(liveSet), b.(liveSet)
	if len(y) > len(x) {
		x, y = y, x
	}
	grew := false
	for k := range y {
		if !x[k] {
			grew = true
			break
		}
	}
	if !grew {
		return x
	}
	out := make(liveSet, len(x)+len(y))
	for k := range x {
		out[k] = true
	}
	for k := range y {
		out[k] = true
	}
	return out
}

// deadWriteLint reports assignments whose value is never read before
// being overwritten or the pipeline ends. A source construct can lower to
// several IR nodes (action inlining, table expansion); a write is only
// reported when every inlined copy is dead, so a store read in one
// context is never flagged because another context ignores it. Compiler
// shadow variables ($-prefixed), control variables and synthetic
// (positionless) nodes are skipped, and so are CFG-unreachable ones: the
// backward pass gives exactly the reachable nodes an Out fact.
func deadWriteLint(p *ir.Program, fs *Facts) []Diagnostic {
	type site struct {
		pos  token.Pos
		name string
	}
	dead := map[site]bool{}
	for _, n := range p.Nodes {
		if n.Kind != ir.Assign || !n.Pos.IsValid() {
			continue
		}
		if n.Var.IsControl || strings.HasPrefix(n.Var.Name, "$") || strings.Contains(n.Var.Name, ".$") {
			continue
		}
		out, ok := fs.Out[n]
		if !ok {
			continue // unreachable
		}
		k := site{n.Pos, n.Var.Name}
		isDead := !out.(liveSet)[n.Var.Name]
		if prev, seen := dead[k]; seen {
			dead[k] = prev && isDead
		} else {
			dead[k] = isDead
		}
	}
	var ds []Diagnostic
	for k, isDead := range dead {
		if !isDead {
			continue
		}
		ds = append(ds, Diagnostic{
			Pass:     "dead-write",
			Severity: SevWarning,
			Line:     k.pos.Line,
			Col:      k.pos.Col,
			Msg:      fmt.Sprintf("value assigned to %s is never read", k.name),
		})
	}
	return ds
}
