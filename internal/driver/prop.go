// Property-DSL orchestration: gather @assert/@assume properties from
// source comments and .props spec files, compile them into the program
// through the ir instrumentation hook, pre-discharge what the dataflow
// layer can prove, and adjudicate the rest with the solver — confirming
// each violation with a deterministic packet witness or dismissing it as
// infeasible. The three verdict tiers mirror the built-in checks'
// economics: discharged properties cost no solver time, dismissed ones
// cost one unsat query, confirmed ones additionally get a canonical
// model replayed on the concrete interpreter.
package driver

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/dataplane"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/prop"
	"bf4/internal/solver"
)

// PropConfig selects options for a property run.
type PropConfig struct {
	// Workers is the solver-confirmation fan-out; <= 0 means one.
	// Reports are byte-identical for every value.
	Workers int
	// Obs/Trace attach observability (nil = off, zero overhead).
	Obs   *obs.Registry
	Trace *obs.Span
}

// DefaultPropConfig matches lint's defaults: sequential confirmation.
func DefaultPropConfig() PropConfig {
	return PropConfig{}
}

// PropReport is the result of one property run.
type PropReport struct {
	Name       string
	Pipeline   *core.Pipeline
	Properties []*prop.Property
	Diags      []analysis.Diagnostic
	analysis.PropSummary

	Runtime time.Duration
}

// Props compiles a program with its properties (source-comment
// annotations plus any extra properties, e.g. from .props spec files)
// and produces the confirmed/dismissed/discharged report. Frontend and
// property type errors come back with positions attached.
func Props(name, src string, extra []*prop.Property, cfg PropConfig) (*PropReport, error) {
	start := time.Now()
	props, err := prop.ExtractSource(name, src)
	if err != nil {
		return nil, err
	}
	props = append(props, extra...)
	prop.Sort(props)

	opts := ir.DefaultOptions()
	opts.Instrument = prop.Instrumenter(props)

	pl, err := compileNamed(name, src, opts, cfg.Obs, cfg.Trace)
	if err != nil {
		return nil, err
	}

	rep := &PropReport{Name: name, Pipeline: pl, Properties: props}
	rep.Props = len(props)
	byOrigin := map[string]*prop.Property{}
	for _, pr := range props {
		if pr.Kind == prop.Assume {
			rep.Assumes++
		}
		byOrigin[pr.Origin()] = pr
	}

	// The static tier: constant propagation's discharge set plus plain CFG
	// reachability retire every check they can prove.
	_, anDone := obs.StartPhase(cfg.Obs, cfg.Trace, "prop-analysis")
	discharged := analysis.Discharge(pl.IR)
	reach := pl.IR.Reachable()
	anDone()

	var nodes []*ir.Node
	for _, bn := range pl.IR.Bugs {
		if bn.Bug == ir.BugAssertFail {
			nodes = append(nodes, bn)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	rep.Checks = len(nodes)

	var candidates []*ir.Node
	static := map[*ir.Node]bool{}
	for _, bn := range nodes {
		if !reach[bn] || discharged[bn] {
			static[bn] = true
			continue
		}
		candidates = append(candidates, bn)
	}

	// The solver tier adjudicates the remainder through the standard wp
	// reachability conditions.
	verdicts, _ := pl.ConfirmNodes(candidates, core.ConfirmOptions{Workers: cfg.Workers, Obs: cfg.Obs, Trace: cfg.Trace}, "confirm-props")
	verdictOf := map[*ir.Node]*core.CheckVerdict{}
	for _, v := range verdicts {
		verdictOf[v.Node] = v
	}

	for _, bn := range nodes {
		pr := byOrigin[originOf(bn)]
		switch {
		case static[bn]:
			rep.Discharged++
			rep.Diags = append(rep.Diags, propDiag(bn, pr, "discharged", ""))
		case verdictOf[bn].Discharged:
			// Condition folded to false without a query — same static
			// guarantee, found one layer later.
			rep.Discharged++
			rep.Diags = append(rep.Diags, propDiag(bn, pr, "discharged", ""))
		case verdictOf[bn].Confirmed:
			rep.Confirmed++
			rep.Diags = append(rep.Diags, propDiag(bn, pr, "confirmed", canonicalWitness(pl, bn, pr)))
		default:
			rep.Dismissed++
			rep.Diags = append(rep.Diags, propDiag(bn, pr, "dismissed", ""))
		}
	}
	rep.Diags = analysis.SortAndDedupe(rep.Diags)

	if cfg.Obs != nil {
		cfg.Obs.Counter("bf4_prop_checks_total").Add(int64(rep.Checks))
		cfg.Obs.Counter("bf4_prop_discharged_total").Add(int64(rep.Discharged))
		cfg.Obs.Counter("bf4_prop_confirmed_total").Add(int64(rep.Confirmed))
		cfg.Obs.Counter("bf4_prop_dismissed_total").Add(int64(rep.Dismissed))
	}
	rep.Runtime = time.Since(start)
	return rep, nil
}

func originOf(bn *ir.Node) string {
	if bn.Prop == nil {
		return ""
	}
	return bn.Prop.Origin
}

// canonicalWitness derives the packet witness reported for a confirmed
// violation. The confirmation phase's models depend on worker count, so
// the report never uses them: a fresh solver re-solves the check's
// reachability condition sequentially (the term is fixed at compile time,
// so the model is reproducible), and the model is replayed on the concrete
// interpreter to read off the fields the property mentions.
func canonicalWitness(pl *core.Pipeline, bn *ir.Node, pr *prop.Property) string {
	cond := pl.Reach.Cond[bn]
	if cond == nil {
		return ""
	}
	s := solver.New(pl.IR.F)
	if s.Check(cond) != solver.Sat {
		return ""
	}
	interp := &dataplane.Interp{P: pl.IR, Model: s.Model(), Pass: pl.Pass}
	tr, err := interp.Run()
	if err != nil || tr.Terminal != bn {
		return ""
	}
	names := []string{"smeta.ingress_port"}
	if pr != nil {
		names = append(names, prop.DataVars(pr.Expr)...)
	}
	sort.Strings(names)
	var parts []string
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		if v, ok := tr.State[name]; ok && v != nil {
			parts = append(parts, fmt.Sprintf("%s=%v", display(name), v))
		}
	}
	return strings.Join(parts, " ")
}

// display maps internal variable names back to source-level spelling.
func display(name string) string {
	name = strings.TrimSuffix(name, ".$valid")
	if rest, ok := strings.CutPrefix(name, "smeta."); ok {
		return "standard_metadata." + rest
	}
	return name
}

// propDiag renders one property check verdict as a diagnostic.
// Source-comment properties anchor to their P4 position; spec-file
// properties keep their origin in the message (anchoring them to the P4
// file would point at nothing).
func propDiag(bn *ir.Node, pr *prop.Property, status, witness string) analysis.Diagnostic {
	info := bn.Prop
	d := analysis.Diagnostic{Pass: "prop", Witness: witness}
	text := bn.Comment
	origin := ""
	if info != nil {
		text = fmt.Sprintf("assert (%s)", info.Text)
		if info.FromSource {
			d.Line = info.Line
			d.Col = info.Col
		} else {
			origin = fmt.Sprintf(" [%s]", info.Origin)
		}
	}
	switch status {
	case "confirmed":
		d.Severity = analysis.SevError
		d.Msg = fmt.Sprintf("property violated: %s%s", text, origin)
	case "dismissed":
		d.Severity = analysis.SevInfo
		d.Msg = fmt.Sprintf("property holds: %s — violation infeasible (solver)%s", text, origin)
	default:
		d.Severity = analysis.SevInfo
		d.Msg = fmt.Sprintf("property holds: %s — discharged statically%s", text, origin)
	}
	return d
}

// Report is the rendered form of the run: lint output plus the property
// summary.
func (r *PropReport) Report() *analysis.Report {
	return &analysis.Report{Diags: r.Diags, Props: &r.PropSummary}
}
