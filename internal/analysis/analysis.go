package analysis

import (
	"bf4/internal/ir"
	"bf4/internal/p4/ast"
)

// Stats quantify the pre-pass for the experiments layer.
type Stats struct {
	// BugChecks is the number of CFG-reachable instrumented bug checks
	// (the solver workload without the pre-pass).
	BugChecks int `json:"bug_checks"`
	// Discharged is how many of those the abstract interpretation proved
	// unreachable; their solver queries are skipped.
	Discharged int `json:"discharged"`
}

// Result is what the verifier's pre-pass produced for one program.
type Result struct {
	// Skip marks bug nodes proven unreachable; core.FindOptions.Skip
	// skips their solver queries with verdict "unreachable" guaranteed.
	Skip  map[*ir.Node]bool
	Stats Stats
}

// Discharge is the pre-pass every verification round runs: constant
// propagation & reachability, and the bug nodes it proves unreachable. The
// analysis is a sound abstraction of the IR semantics (unknown inputs and
// table outcomes stay unknown), so such a node is unreachable on every
// concrete execution and its weakest-precondition query is unsatisfiable;
// discharging it cannot change any verdict.
func Discharge(p *ir.Program) *Result {
	reach := make(map[*ir.Node]bool, len(p.Nodes))
	for _, n := range p.Topo() {
		reach[n] = true
	}
	res := &Result{Skip: dischargeSet(p, reach, SolveForward(p, NewConstProp(p)))}
	for _, bn := range p.Bugs {
		if reach[bn] {
			res.Stats.BugChecks++
		}
	}
	res.Stats.Discharged = len(res.Skip)
	return res
}

// Lint is `bf4 lint`'s analysis of a lowered program: the definite bugs
// and constant conditions constant propagation finds, dead writes, and,
// when the source AST is supplied, table lint. The diagnostics come sorted
// and deduplicated.
func Lint(p *ir.Program, prog *ast.Program) []Diagnostic {
	cp := SolveForward(p, NewConstProp(p))
	ds := definiteBugLint(p, cp)
	ds = append(ds, constPropLint(p, cp)...)
	ds = append(ds, deadWriteLint(p, SolveBackward(p, NewLiveness(p)))...)
	if prog != nil {
		ds = append(ds, TableLint(prog)...)
	}
	return SortAndDedupe(ds)
}
