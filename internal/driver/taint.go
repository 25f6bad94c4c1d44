// Information-flow (taint) orchestration: compile with shadow-taint
// instrumentation, run the label dataflow pass, and hand every alarm to
// the solver for confirmation. The two halves see the same taint
// semantics — the dataflow pass abstractly executes the very shadow
// terms the solver decides — so a sink the dataflow clears needs no
// query, and a dataflow alarm the solver refutes is a genuinely
// infeasible flow, reported as dismissed.
package driver

import (
	"fmt"
	"strings"
	"time"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
)

// TaintConfig selects options for a taint run.
type TaintConfig struct {
	// Policy picks the source set: "default" taints @sensitive-annotated
	// fields plus the built-in policy (ipv4/ipv6 source addresses);
	// "annot" taints annotated fields only.
	Policy string
	// Workers is the solver-confirmation fan-out; <= 0 means one.
	// Reports are byte-identical for every value.
	Workers int
	// Obs/Trace attach observability (nil = off, zero overhead).
	Obs   *obs.Registry
	Trace *obs.Span
}

// DefaultTaintConfig matches lint's defaults: full policy, sequential
// confirmation.
func DefaultTaintConfig() TaintConfig {
	return TaintConfig{Policy: "default"}
}

// TaintReport is the result of one taint run.
type TaintReport struct {
	Name     string
	Pipeline *core.Pipeline
	Dataflow *analysis.TaintResult
	// Verdicts is parallel to Dataflow.Alarms.
	Verdicts []*core.LeakVerdict
	// Diags carries one diagnostic per alarm: confirmed leaks from
	// annotated sources are errors, confirmed policy-source leaks are
	// warnings, dismissed alarms are info.
	Diags []analysis.Diagnostic
	analysis.TaintSummary

	DataflowIterations int
	Runtime            time.Duration
}

// Taint compiles a program with information-flow instrumentation and
// produces the confirmed/dismissed leak report. Frontend errors come
// back with name: prefixed (like Lint).
func Taint(name, src string, cfg TaintConfig) (*TaintReport, error) {
	start := time.Now()
	switch cfg.Policy {
	case "", "default":
		cfg.Policy = "default"
	case "annot":
	default:
		return nil, fmt.Errorf("taint: policy must be default or annot, got %q", cfg.Policy)
	}

	opts := ir.DefaultOptions()
	opts.CheckInfoFlow = true
	opts.TaintDefaultPolicy = cfg.Policy == "default"
	pl, err := compileNamed(name, src, opts, cfg.Obs, cfg.Trace)
	if err != nil {
		return nil, err
	}

	_, dfDone := obs.StartPhase(cfg.Obs, cfg.Trace, "taint-dataflow")
	df := analysis.RunTaint(pl.IR)
	dfDone()

	alarmNodes := make([]*ir.Node, len(df.Alarms))
	for i, a := range df.Alarms {
		alarmNodes[i] = a.Node
	}
	verdicts, _ := pl.ConfirmLeaks(alarmNodes, core.ConfirmOptions{Workers: cfg.Workers, Obs: cfg.Obs, Trace: cfg.Trace})

	rep := &TaintReport{
		Name:     name,
		Pipeline: pl,
		Dataflow: df,
		Verdicts: verdicts,
		TaintSummary: analysis.TaintSummary{
			Sinks:           df.Sinks,
			StaticallyClean: df.StaticallyClean,
			Alarms:          len(df.Alarms),
		},
		DataflowIterations: df.Iterations,
	}
	for i, a := range df.Alarms {
		v := verdicts[i]
		if v.Confirmed {
			rep.Confirmed++
		} else {
			rep.Dismissed++
		}
		rep.Diags = append(rep.Diags, taintDiag(pl.IR, a, v))
	}
	rep.Diags = analysis.SortAndDedupe(rep.Diags)

	if cfg.Obs != nil {
		cfg.Obs.Counter("bf4_taint_sinks_total").Add(int64(rep.Sinks))
		cfg.Obs.Counter("bf4_taint_static_clean_total").Add(int64(rep.StaticallyClean))
		cfg.Obs.Counter("bf4_taint_alarms_total").Add(int64(rep.Alarms))
		cfg.Obs.Counter("bf4_taint_confirmed_total").Add(int64(rep.Confirmed))
		cfg.Obs.Counter("bf4_taint_dismissed_total").Add(int64(rep.Dismissed))
	}
	rep.Runtime = time.Since(start)
	return rep, nil
}

// taintDiag renders one alarm + verdict as a diagnostic. Severity
// follows the source's origin: a confirmed leak of an @sensitive-
// annotated field is an error (the programmer declared the secret), a
// confirmed leak under the built-in default policy is a warning, and a
// dismissed alarm is informational (the dataflow over-approximation
// fired but the solver proved the flow infeasible).
func taintDiag(p *ir.Program, a *analysis.TaintAlarm, v *core.LeakVerdict) analysis.Diagnostic {
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
	if v.Confirmed {
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

// compileNamed is the front half Taint and Props share: parse and
// type-check src with name: prefixed onto every diagnostic line (like
// Lint), then lower, passify and compute sliced reachability conditions
// under a "compile" span.
func compileNamed(name, src string, opts ir.Options, reg *obs.Registry, trace *obs.Span) (*core.Pipeline, error) {
	prog, err := parser.ParseFile(name, src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, parser.PrefixFile(name, err)
	}
	sp, done := obs.StartPhase(reg, trace, "compile")
	pl, err := core.CompileWith(src, core.CompileOptions{IR: opts, Slicing: true, AST: prog, Info: info, Obs: reg, Trace: sp})
	done()
	return pl, parser.PrefixFile(name, err)
}
