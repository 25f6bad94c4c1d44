package analysis

import (
	"fmt"

	"bf4/internal/ir"
	"bf4/internal/smt"
)

// constants is the constant-propagation & reachability dataflow problem.
// Facts are env stores over every IR variable.
//
// It implements EdgeRefiner: branch conditions that fold to a constant
// kill the infeasible edge (reachability), and conditions that do not
// fold still refine the store on each side (path sensitivity for simple
// guards like `if (hdr.ipv4.isValid())`).
type constants struct {
	f *smt.Factory
}

// NewConstProp returns the constant-propagation & reachability analysis
// for p: it tracks every IR variable, folds constant conditions, and
// prunes infeasible branch edges so statically-dead nodes are reported
// unreachable.
func NewConstProp(p *ir.Program) Analysis {
	return &constants{f: p.F}
}

func (c *constants) Boundary() Fact { return env{} }

func (c *constants) Transfer(n *ir.Node, in Fact) Fact {
	e := in.(env)
	switch n.Kind {
	case ir.Assign:
		val := evalUnder(c.f, n.Expr, e)
		if isLiteral(val) {
			out := e.clone()
			out[n.Var.Name] = val
			return out
		}
		if _, had := e[n.Var.Name]; had {
			out := e.clone()
			delete(out, n.Var.Name)
			return out
		}
		return e
	case ir.Havoc:
		if _, had := e[n.Var.Name]; had {
			out := e.clone()
			delete(out, n.Var.Name)
			return out
		}
		return e
	}
	return e
}

func (c *constants) Join(a, b Fact) Fact { return joinEnv(a.(env), b.(env)) }

// FlowEdge implements EdgeRefiner. Succs[0] is the branch-taken edge.
func (c *constants) FlowEdge(n *ir.Node, succIdx int, out Fact) Fact {
	if n.Kind != ir.Branch {
		return out
	}
	e := out.(env)
	cond := evalUnder(c.f, n.Expr, e)
	taken := succIdx == 0
	if cond.IsTrue() && !taken {
		return nil // else edge of an always-true branch is infeasible
	}
	if cond.IsFalse() && taken {
		return nil // then edge of an always-false branch is infeasible
	}
	return refine(c.f, e, n.Expr, taken)
}

// foldedCond returns the branch condition of n folded under the solved
// input fact, or nil when n is not a reachable branch.
func foldedCond(f *smt.Factory, fs *Facts, n *ir.Node) *smt.Term {
	if n.Kind != ir.Branch {
		return nil
	}
	in, ok := fs.In[n]
	if !ok {
		return nil
	}
	return evalUnder(f, n.Expr, in.(env))
}

// constPropLint reports source-level `if` conditions that fold to a
// constant — the branch can only ever go one way.
func constPropLint(p *ir.Program, fs *Facts) []Diagnostic {
	var ds []Diagnostic
	for _, n := range p.Nodes {
		if n.Comment != "if" || !n.Pos.IsValid() {
			continue
		}
		cond := foldedCond(p.F, fs, n)
		if cond == nil {
			continue
		}
		var sense string
		switch {
		case cond.IsTrue():
			sense = "true"
		case cond.IsFalse():
			sense = "false"
		default:
			continue
		}
		ds = append(ds, Diagnostic{
			Pass:     "constprop",
			Severity: SevWarning,
			Line:     n.Pos.Line,
			Col:      n.Pos.Col,
			Msg:      fmt.Sprintf("condition is always %s; the other branch is unreachable", sense),
		})
	}
	return ds
}
