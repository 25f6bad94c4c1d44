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
	// DischargedValidity counts the subset already proven by the
	// header-validity lattice alone (the rest needed full constant
	// propagation).
	DischargedValidity int `json:"discharged_validity"`
	// Iterations sums worklist transfer applications across all analyses.
	Iterations int `json:"iterations"`
}

// Result bundles everything the static-analysis layer produced for one
// program.
type Result struct {
	// Diags are the lint findings, sorted and deduplicated.
	Diags []Diagnostic
	// Discharge marks bug nodes proven unreachable; core.FindOptions.Skip
	// skips their solver queries with verdict "unreachable" guaranteed.
	Discharge map[*ir.Node]bool
	Stats     Stats
}

// Discharge runs the one analysis whose result feeds the solver — constant
// propagation & reachability — and returns the bug nodes it proves
// unreachable. The analysis is a sound abstraction of the IR semantics
// (unknown inputs and table outcomes stay unknown), so such a node is
// unreachable on every concrete execution and its weakest-precondition
// query is unsatisfiable; discharging it cannot change any verdict. A rebuild
// round, which reads nothing else of the layer, calls this and not Run.
func Discharge(p *ir.Program) map[*ir.Node]bool {
	set, _, _ := discharge(p)
	return set
}

// discharge also returns what the lint reads of the computation: CFG
// reachability and the constant-propagation facts.
func discharge(p *ir.Program) (set, reach map[*ir.Node]bool, cp *Facts) {
	reach = p.Reachable()
	cp = SolveForward(p.Start, NewConstProp(p))
	return dischargeSet(p, reach, cp), reach, cp
}

// Run executes the whole static-analysis layer over a lowered program:
// Discharge, and on top of it the lint — header validity, dead-write
// liveness, and, when the source AST is supplied, table lint.
func Run(p *ir.Program, prog *ast.Program) *Result {
	set, reach, cp := discharge(p)
	val := SolveForward(p.Start, NewValidity(p))
	live := SolveBackward(p.Start, NewLiveness(p))

	res := &Result{Discharge: set}
	res.Stats.Iterations = cp.Iterations + val.Iterations + live.Iterations

	for _, bn := range p.Bugs {
		if reach[bn] {
			res.Stats.BugChecks++
		}
	}
	res.Stats.Discharged = len(res.Discharge)
	// Constant propagation tracks a superset of what the validity lattice
	// tracks (with identical refinement), so its discharge set subsumes
	// validity's (TestConstPropDischargeSubsumesValidity); the validity run
	// attributes how much the cheap lattice achieves alone.
	res.Stats.DischargedValidity = len(dischargeSet(p, reach, val))

	// Lint. Definite validity bugs come from the validity facts; definite
	// bugs of other classes from the richer constprop facts.
	res.Diags = append(res.Diags, definiteBugLint(p, val, "header-validity", validityKind)...)
	res.Diags = append(res.Diags, definiteBugLint(p, cp, "constprop",
		func(k ir.BugKind) bool { return !validityKind(k) })...)
	res.Diags = append(res.Diags, constPropLint(p, cp)...)
	res.Diags = append(res.Diags, deadWriteLint(p, reach, live)...)
	if prog != nil {
		res.Diags = append(res.Diags, TableLint(prog)...)
	}
	sortDiags(res.Diags)
	res.Diags = dedupeDiags(res.Diags)
	return res
}
