// Forward information-flow (taint) dataflow pass, one topological walk of
// the IR (SolveForward). It runs on IR built with Options.CheckInfoFlow
// and abstractly executes the builder's shadow taint assignments: on
// v.$taint := T(...), the new label mask of v is T evaluated under the
// current masks (smt.Eval; unbound shadows read as zero = public). The
// abstract and concrete taint semantics are therefore the same term,
// interpreted over masks here and over per-path shadow values in the
// solver — a sink the dataflow proves untainted is untainted on every
// path (monotonicity), and every dataflow alarm is handed to the solver
// (driver.Taint decides the alarm nodes with core.FindBugsWith, the loop
// every bug check goes through) rather than reported directly.
package analysis

import (
	"fmt"
	"math/big"

	"bf4/internal/ir"
)

// taintAnalysis implements Analysis; see iflabel.go for the fact.
type taintAnalysis struct{}

// Boundary starts with no labels: sources are tainted by the
// instrumented shadow initializations, not by the boundary fact.
func (a *taintAnalysis) Boundary() Fact { return iflabels{} }

// Join is the per-variable, per-bit least upper bound: mask union.
// Provenance picks the deterministic representative (betterProv).
func (a *taintAnalysis) Join(x, y Fact) Fact {
	ex, ey := x.(iflabels), y.(iflabels)
	if len(ex) == 0 {
		return ey
	}
	if len(ey) == 0 {
		return ex
	}
	out := make(iflabels, len(ex)+len(ey))
	for k, lx := range ex {
		if ly, ok := ey[k]; ok {
			merged := &label{mask: new(big.Int).Or(lx.mask, ly.mask)}
			pick := lx
			if betterProv(ly, lx) {
				pick = ly
			}
			merged.src, merged.steps = pick.src, pick.steps
			out[k] = merged
		} else {
			out[k] = lx
		}
	}
	for k, ly := range ey {
		if _, ok := ex[k]; !ok {
			out[k] = ly
		}
	}
	return out
}

// Transfer is the label transfer function, exhaustive over ir.NodeKind
// (TestTaintTransferEveryNodeKind). Only shadow assignments move
// labels: the instrumented IR mirrors every data-variable update onto
// its shadow, so value assignments and havocs are identity here — their
// label effect arrives via the shadow node emitted right after them.
func (a *taintAnalysis) Transfer(n *ir.Node, in Fact) Fact {
	e := in.(iflabels)
	switch n.Kind {
	case ir.Assign:
		base, ok := ir.ShadowBase(n.Var.Name)
		if !ok {
			return e
		}
		mask := e.evalTaint(n.Expr)
		if cur, had := e[base]; !had && mask.Sign() == 0 {
			return e
		} else if had && mask.Sign() != 0 && cur.mask.Cmp(mask) == 0 {
			return e
		}
		out := e.clone()
		if mask.Sign() == 0 {
			delete(out, base)
			return out
		}
		src, steps := e.provFor(n.Expr, base)
		out[base] = &label{mask: mask, src: src, steps: steps}
		return out
	case ir.Havoc:
		return e
	case ir.Nop, ir.Branch, ir.AssertPoint, ir.DontCare,
		ir.BugTerm, ir.AcceptTerm, ir.RejectTerm, ir.UnreachTerm:
		return e
	}
	panic(fmt.Sprintf("analysis: no taint transfer for node kind %v", n.Kind))
}

// TaintAlarm is one dataflow-level leak alarm: a sink the label
// analysis could not prove clean, pending solver confirmation.
type TaintAlarm struct {
	Node *ir.Node // the BugInfoLeak terminal
	// Source is the sensitive variable the flow traces back to, and
	// Witness the full rendered path: source, intermediate copies, sink
	// destination.
	Source  string
	Witness []string
}

// TaintResult is the outcome of the dataflow half of the taint pass.
type TaintResult struct {
	Alarms []*TaintAlarm
	// Sinks counts reachable instrumented sink checks; StaticallyClean
	// counts those the label analysis discharged without any solver
	// query (the mirror image of the PR3 pre-discharge contract).
	Sinks           int
	StaticallyClean int
}

// RunTaint solves the label analysis over an instrumented program and
// extracts alarms at every BugInfoLeak sink whose taint mask is nonzero
// under the converged labels. Alarms are ordered by bug-node ID, which
// is the builder's deterministic emission order.
func RunTaint(p *ir.Program) *TaintResult {
	fs := SolveForward(p, &taintAnalysis{})
	res := &TaintResult{}
	for _, bn := range p.Bugs {
		if bn.Bug != ir.BugInfoLeak || bn.Leak == nil {
			continue
		}
		g, ok := guardOf(bn)
		if !ok || !fs.Reached(g) {
			continue
		}
		res.Sinks++
		e, _ := fs.In[g].(iflabels)
		if e == nil {
			e = iflabels{}
		}
		mask := e.evalTaint(bn.Leak.Taint)
		if mask.Sign() == 0 {
			res.StaticallyClean++
			continue
		}
		alarm := &TaintAlarm{Node: bn}
		if best := e.bestContributor(bn.Leak.Taint); best != nil {
			alarm.Source = best.src
			alarm.Witness = append(alarm.Witness, best.src)
			alarm.Witness = append(alarm.Witness, best.steps...)
		} else {
			alarm.Source = "?"
			alarm.Witness = append(alarm.Witness, "?")
		}
		alarm.Witness = append(alarm.Witness, bn.Leak.Dest)
		res.Alarms = append(res.Alarms, alarm)
	}
	return res
}
