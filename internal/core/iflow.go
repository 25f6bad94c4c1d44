// Solver confirmation for information-flow alarms. The dataflow half
// (internal/analysis RunTaint) over-approximates: it flags every sink a
// label analysis cannot prove clean. ConfirmLeaks runs the precise half
// of the contract — each alarm's BugInfoLeak node already carries a
// reachability condition (taint != 0 conjoined with the path condition,
// via the standard wp machinery), so a single satisfiability query per
// alarm either confirms the leak with a witness model or dismisses it as
// infeasible. This is the PR3 discharge contract in reverse: there the
// dataflow pass saves solver queries; here the solver retires dataflow
// false positives.
package core

import (
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/smt"
)

// CheckVerdict is the solver's answer for one bug node handed to
// ConfirmNodes (a taint alarm, a user @assert, ...).
type CheckVerdict struct {
	// Node is the bug terminal the verdict is about.
	Node *ir.Node
	// Confirmed means the solver found a packet (model) that reaches the
	// bug node; Model is that satisfying assignment.
	Confirmed bool
	Model     smt.Env
	// Discharged marks nodes dismissed without a solver query: the
	// reachability condition was absent, or the term factory folded it to
	// false.
	Discharged bool
}

// LeakVerdict is the information-flow name for a CheckVerdict.
type LeakVerdict = CheckVerdict

// ConfirmOptions configures the confirmation phase.
type ConfirmOptions struct {
	// Workers bounds the number of parallel solver workers; values < 1 mean
	// one. Verdicts are deterministic for any count (see checkNodes).
	Workers int
	// Obs/Trace attach observability; nil disables it.
	Obs   *obs.Registry
	Trace *obs.Span
}

// ConfirmLeaks decides each alarm bug node with the solver. It is
// ConfirmNodes under its original information-flow name, plus the iflow
// observability counters.
func (pl *Pipeline) ConfirmLeaks(alarms []*ir.Node, opts ConfirmOptions) []*LeakVerdict {
	out := pl.ConfirmNodes(alarms, opts, "confirm-leaks")
	if opts.Obs != nil {
		confirmed, discharged := 0, 0
		for _, v := range out {
			if v.Confirmed {
				confirmed++
			}
			if v.Discharged {
				discharged++
			}
		}
		opts.Obs.Counter("bf4_iflow_alarms_total").Add(int64(len(alarms)))
		opts.Obs.Counter("bf4_iflow_confirmed_total").Add(int64(confirmed))
		opts.Obs.Counter("bf4_iflow_dismissed_total").Add(int64(len(alarms) - confirmed))
		// Alarms whose condition is absent or that the factory folded to
		// false: no query was asked.
		opts.Obs.Counter("bf4_iflow_discharged_fold_total").Add(int64(discharged))
	}
	return out
}

// ConfirmNodes decides each bug node with the solver: Confirmed with a
// witness model when its reachability condition is satisfiable,
// Discharged when the condition is absent or constant false, dismissed
// (neither flag) when the solver proves it unreachable. The returned
// slice is parallel to nodes: verdict i answers nodes[i]. Verdicts do
// not depend on Workers — only wall-clock does (models MAY differ across
// worker counts; callers needing a canonical witness re-derive one
// deterministically).
func (pl *Pipeline) ConfirmNodes(nodes []*ir.Node, opts ConfirmOptions, phase string) []*CheckVerdict {
	sp, done := obs.StartPhase(opts.Obs, opts.Trace, phase)
	defer done()

	checks, _ := pl.checkNodes(nodes, opts.Workers, nil, opts.Obs, phase)
	out := make([]*CheckVerdict, len(nodes))
	confirmed := 0
	for i, c := range checks {
		out[i] = &CheckVerdict{Node: nodes[i], Confirmed: c.reachable, Model: c.model, Discharged: c.discharged}
		if c.reachable {
			confirmed++
		}
	}
	if opts.Obs != nil {
		sp.SetMetric("alarms", int64(len(nodes)))
		sp.SetMetric("confirmed", int64(confirmed))
	}
	return out
}
