// Property-DSL orchestration: gather @assert/@assume properties from
// source comments and .props spec files (GatherProps), compile them into
// the program through the ir instrumentation hook, and decide every assert with
// core.FindBugsWith — the dataflow layer's discharge set as its skip set,
// so what the static tier proves costs no query. The three verdict tiers
// mirror the built-in checks' economics: discharged properties cost no
// solver time, dismissed ones cost one unsat query, confirmed ones
// additionally get a canonical model replayed on the concrete interpreter.
package driver

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/dataplane"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/pool"
	"bf4/internal/prop"
	"bf4/internal/solver"
)

// PropReport is the result of one property run.
type PropReport struct {
	Name       string
	Pipeline   *core.Pipeline
	Properties []*prop.Property
	// Bugs are FindBugsWith's records of the assert nodes; tier reads each
	// one's verdict.
	Bugs  []*core.Bug
	Diags []analysis.Diagnostic
	analysis.PropSummary
}

// GatherProps collects the properties of program name: its source
// comments, then extra, then the .props file at specFile when one is
// named, in prop.Sort's order. bf4 -check=assert and bf4 lint -props check
// what it returns.
func GatherProps(name, src, specFile string, extra []*prop.Property) ([]*prop.Property, error) {
	props, err := prop.ExtractSource(name, src)
	if err != nil {
		return nil, err
	}
	props = append(props, extra...)
	if specFile != "" {
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		ps, err := prop.ParseSpecFile(specFile, data)
		if err != nil {
			return nil, err
		}
		props = append(props, ps...)
	}
	prop.Sort(props)
	return props, nil
}

// Props compiles a program with props (GatherProps) under cfg and produces
// the confirmed/dismissed/discharged report. Frontend, lowering and
// property type errors come back as every bf4 lint mode prints them
// (lintError).
func Props(name, src string, props []*prop.Property, cfg Config) (*PropReport, error) {
	cfg.IR.Instrument = func(p *ir.Program) error {
		if err := prop.Instrument(p, props); err != nil {
			return propError{err}
		}
		return nil
	}
	pl, err := lintCompile(name, src, cfg)
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

	var nodes []*ir.Node
	for _, bn := range pl.IR.Bugs {
		if bn.Bug == ir.BugAssertFail {
			nodes = append(nodes, bn)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	rep.Checks = len(nodes)

	// The static tier: constant propagation's discharge set, plus plain CFG
	// reachability inside FindBugsWith.
	_, done := obs.StartPhase(cfg.Obs, cfg.Trace, "analysis")
	skip := analysis.Discharge(pl.IR).Skip
	done()
	rep.Bugs = pl.FindBugsWith(nodes, core.FindOptions{Skip: skip, Workers: pool.Workers(cfg.Workers), Obs: cfg.Obs, Trace: cfg.Trace}).Bugs
	bugOf := map[*ir.Node]*core.Bug{}
	for _, b := range rep.Bugs {
		bugOf[b.Node] = b
	}

	for _, bn := range nodes {
		pr := byOrigin[originOf(bn)]
		status, witness := tier(bugOf[bn]), ""
		switch status {
		case "discharged":
			rep.Discharged++
		case "confirmed":
			rep.Confirmed++
			witness = canonicalWitness(pl, bn, pr)
		default:
			rep.Dismissed++
		}
		rep.Diags = append(rep.Diags, propDiag(bn, pr, status, witness))
	}
	rep.Diags = analysis.SortAndDedupe(rep.Diags)

	if cfg.Obs != nil {
		cfg.Obs.Counter("bf4_prop_checks_total").Add(int64(rep.Checks))
		cfg.Obs.Counter("bf4_prop_discharged_total").Add(int64(rep.Discharged))
		cfg.Obs.Counter("bf4_prop_confirmed_total").Add(int64(rep.Confirmed))
		cfg.Obs.Counter("bf4_prop_dismissed_total").Add(int64(rep.Dismissed))
	}
	return rep, nil
}

// tier is the verdict Props reports for an assert node, read from its
// record b (nil when FindBugsWith made none: the node is off the CFG or
// has no reachability condition). No record, a Discharged one or a
// condition folded to false is "discharged" statically; a Reachable one
// is "confirmed"; any other is "dismissed", the solver having answered
// unsat.
func tier(b *core.Bug) string {
	switch {
	case b == nil || b.Discharged || b.Cond.IsFalse():
		return "discharged"
	case b.Reachable:
		return "confirmed"
	}
	return "dismissed"
}

func originOf(bn *ir.Node) string {
	if bn.Prop == nil {
		return ""
	}
	return bn.Prop.Origin
}

// canonicalWitness derives the packet witness reported for a confirmed
// violation. The decision loop's models depend on worker count, so the
// report never uses them: a fresh solver re-solves the check's
// reachability condition sequentially (the term is fixed at compile time,
// so the model is reproducible), and the model is replayed on the concrete
// interpreter to read off the fields the property mentions.
func canonicalWitness(pl *core.Pipeline, bn *ir.Node, pr *prop.Property) string {
	cond := pl.Reach.Cond[bn]
	if cond == nil {
		return ""
	}
	s := solver.New()
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
