// Information-flow (taint) orchestration: compile with shadow-taint
// instrumentation, run the label dataflow pass, and decide every alarm
// with core.FindBugsWith. The two halves see the same taint semantics —
// the dataflow pass abstractly executes the very shadow terms the solver
// decides — so a sink the dataflow clears needs no query, and a dataflow
// alarm the solver refutes is a genuinely infeasible flow, reported as
// dismissed.
package driver

import (
	"fmt"
	"strings"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/pool"
)

// TaintReport is the result of one taint run.
type TaintReport struct {
	Name     string
	Pipeline *core.Pipeline
	Dataflow *analysis.TaintResult
	// Bugs are FindBugsWith's records of the alarm nodes: an alarm is a
	// confirmed leak when its node's record is Reachable.
	Bugs []*core.Bug
	// Diags carries one diagnostic per alarm: confirmed leaks from
	// annotated sources are errors, confirmed policy-source leaks are
	// warnings, dismissed alarms are info.
	Diags []analysis.Diagnostic
	analysis.TaintSummary
}

// Taint compiles a program with information-flow instrumentation under
// cfg — cfg.IR.TaintDefaultPolicy picks the source set: @sensitive
// annotations plus the built-in policy (ipv4/ipv6 source addresses), or
// the annotations alone — and produces the confirmed/dismissed leak
// report. Frontend and lowering errors come back as every bf4 lint mode
// prints them (lintError).
func Taint(name, src string, cfg Config) (*TaintReport, error) {
	cfg.IR.CheckInfoFlow = true
	pl, err := lintCompile(name, src, cfg)
	if err != nil {
		return nil, err
	}

	_, done := obs.StartPhase(cfg.Obs, cfg.Trace, "analysis")
	df := analysis.RunTaint(pl.IR)
	done()

	alarms := make([]*ir.Node, len(df.Alarms))
	for i, a := range df.Alarms {
		alarms[i] = a.Node
	}
	rep := &TaintReport{
		Name:     name,
		Pipeline: pl,
		Dataflow: df,
		Bugs:     pl.FindBugsWith(alarms, core.FindOptions{Workers: pool.Workers(cfg.Workers), Obs: cfg.Obs, Trace: cfg.Trace}).Bugs,
		TaintSummary: analysis.TaintSummary{
			Sinks:           df.Sinks,
			StaticallyClean: df.StaticallyClean,
			Alarms:          len(df.Alarms),
		},
	}
	confirmed := map[*ir.Node]bool{}
	for _, b := range rep.Bugs {
		confirmed[b.Node] = b.Reachable
	}
	for _, a := range df.Alarms {
		if confirmed[a.Node] {
			rep.Confirmed++
		} else {
			rep.Dismissed++
		}
		rep.Diags = append(rep.Diags, taintDiag(pl.IR, a, confirmed[a.Node]))
	}
	rep.Diags = analysis.SortAndDedupe(rep.Diags)

	if cfg.Obs != nil {
		cfg.Obs.Counter("bf4_taint_sinks_total").Add(int64(rep.Sinks))
		cfg.Obs.Counter("bf4_taint_static_clean_total").Add(int64(rep.StaticallyClean))
		cfg.Obs.Counter("bf4_taint_alarms_total").Add(int64(rep.Alarms))
		cfg.Obs.Counter("bf4_taint_confirmed_total").Add(int64(rep.Confirmed))
		cfg.Obs.Counter("bf4_taint_dismissed_total").Add(int64(rep.Dismissed))
	}
	return rep, nil
}

// taintDiag renders one alarm + verdict as a diagnostic. Severity
// follows the source's origin: a confirmed leak of an @sensitive-
// annotated field is an error (the programmer declared the secret), a
// confirmed leak under the built-in default policy is a warning, and a
// dismissed alarm is informational (the dataflow over-approximation
// fired but the solver proved the flow infeasible).
func taintDiag(p *ir.Program, a *analysis.TaintAlarm, confirmed bool) analysis.Diagnostic {
	pos := analysis.FallbackPos(a.Node)
	origin := "default policy"
	sev := analysis.SevWarning
	if ss := p.Sensitive[a.Source]; ss != nil && ss.Origin == "annot" {
		origin = "@sensitive annotation"
		sev = analysis.SevError
	}
	d := analysis.Diagnostic{
		Pass:    "info-flow",
		Line:    pos.Line,
		Col:     pos.Col,
		Witness: strings.Join(a.Witness, " -> "),
	}
	if confirmed {
		d.Severity = sev
		d.Msg = fmt.Sprintf("confirmed leak: %s (source %s, %s)", a.Node.Comment, a.Source, origin)
	} else {
		d.Severity = analysis.SevInfo
		d.Msg = fmt.Sprintf("dismissed (flow infeasible): %s (source %s, %s)", a.Node.Comment, a.Source, origin)
	}
	return d
}

// Report is the rendered form of the run: lint output plus the taint
// summary.
func (r *TaintReport) Report() *analysis.Report {
	return &analysis.Report{Diags: r.Diags, Taint: &r.TaintSummary}
}
