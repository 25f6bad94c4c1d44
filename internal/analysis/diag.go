package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"bf4/internal/p4/token"
)

// Severity grades a diagnostic.
type Severity int

// Severity levels. Error marks definite static bugs (every execution
// reaching the site misbehaves); Warning marks likely mistakes that
// cannot break verification (dead stores, shadowed keys); Info marks
// observations (unreachable code).
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

var sevNames = map[Severity]string{
	SevInfo: "info", SevWarning: "warning", SevError: "error",
}

func (s Severity) String() string { return sevNames[s] }

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for k, v := range sevNames {
		if v == name {
			*s = k
			return nil
		}
	}
	return fmt.Errorf("analysis: unknown severity %q", name)
}

// Diagnostic is one lint finding with a stable source position.
type Diagnostic struct {
	// Pass names the analyzer that produced the finding (e.g.
	// "header-validity", "dead-write").
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Msg      string   `json:"message"`
	// Witness is the rendered flow path for information-flow findings
	// ("source -> copy -> sink"); empty for every other pass. Kept as a
	// pre-rendered string so Diagnostic stays comparable.
	Witness string `json:"witness,omitempty"`
}

// Pos returns the diagnostic's source position.
func (d Diagnostic) Pos() token.Pos { return token.Pos{Line: d.Line, Col: d.Col} }

// Format renders the diagnostic as file:line:col: severity: msg [pass].
// An empty file yields line:col without the file prefix; an invalid
// position drops line:col entirely.
func (d Diagnostic) Format(file string) string {
	var b strings.Builder
	if file != "" {
		b.WriteString(file)
		b.WriteString(":")
	}
	if d.Line > 0 {
		fmt.Fprintf(&b, "%d:%d:", d.Line, d.Col)
	}
	if b.Len() > 0 {
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "%s: %s [%s]", d.Severity, d.Msg, d.Pass)
	if d.Witness != "" {
		fmt.Fprintf(&b, " {flow: %s}", d.Witness)
	}
	return b.String()
}

// sortDiags orders diagnostics by position, then severity (errors
// first), pass and message — a total, input-order-independent order so
// renderings are byte-stable for golden files and CI diffing.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		return a.Witness < b.Witness
	})
}

// dedupeDiags removes exact duplicates from a sorted slice (distinct IR
// nodes lowered from one source construct produce identical findings).
func dedupeDiags(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// SortAndDedupe puts diagnostics in the stable rendering order (see
// sortDiags) and drops exact duplicates. Passes outside this package
// (the information-flow driver) use it to match lint's output contract.
func SortAndDedupe(ds []Diagnostic) []Diagnostic {
	sortDiags(ds)
	return dedupeDiags(ds)
}

// Report is what every `bf4 lint` mode renders: the diagnostics and, for
// the two solver-backed check families, the family's summary counts.
type Report struct {
	Diags []Diagnostic
	Taint *TaintSummary
	Props *PropSummary
}

// TaintSummary counts one information-flow run.
type TaintSummary struct {
	Alarms          int `json:"alarms"`           // sinks escalated to the solver
	Confirmed       int `json:"confirmed"`        // alarms the solver confirmed (with a model)
	Dismissed       int `json:"dismissed"`        // alarms the solver refuted (infeasible flow)
	StaticallyClean int `json:"statically_clean"` // sinks the dataflow cleared without a query
	Sinks           int `json:"sinks"`            // reachable instrumented sink checks
}

// PropSummary counts one property run. Checks can exceed the number of
// asserts when an @after table has several apply instances (one check per
// instance).
type PropSummary struct {
	Props      int `json:"properties"` // properties gathered (asserts + assumes)
	Checks     int `json:"checks"`     // assert check nodes spliced
	Confirmed  int `json:"confirmed"`  // checks the solver violated (with a packet witness)
	Dismissed  int `json:"dismissed"`  // checks the solver proved to hold (violation infeasible)
	Discharged int `json:"discharged"` // checks proven to hold statically (no solver query)
	Assumes    int `json:"assumes"`    // @assume constraints spliced
}

// counts tallies error- and warning-severity diagnostics.
func (r *Report) counts() (errs, warns int) {
	for _, d := range r.Diags {
		switch d.Severity {
		case SevError:
			errs++
		case SevWarning:
			warns++
		}
	}
	return errs, warns
}

// HasErrors reports whether any diagnostic is error-severity — the
// condition under which `bf4 lint` exits 1.
func (r *Report) HasErrors() bool {
	errs, _ := r.counts()
	return errs > 0
}

// RenderText renders diagnostics one per line for terminals, then a count
// line, then the family's stable one-line summary if there is one.
func (r *Report) RenderText(file string) string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.Format(file))
		b.WriteString("\n")
	}
	errs, warns := r.counts()
	fmt.Fprintf(&b, "%d error(s), %d warning(s), %d diagnostic(s)\n", errs, warns, len(r.Diags))
	if t := r.Taint; t != nil {
		fmt.Fprintf(&b, "taint: %d alarm(s), %d confirmed, %d dismissed, %d statically clean, %d sink check(s)\n",
			t.Alarms, t.Confirmed, t.Dismissed, t.StaticallyClean, t.Sinks)
	}
	if p := r.Props; p != nil {
		ending := "ies"
		if p.Props == 1 {
			ending = "y"
		}
		fmt.Fprintf(&b, "props: %d propert%s, %d check(s), %d confirmed, %d dismissed, %d discharged, %d assume(s)\n",
			p.Props, ending, p.Checks, p.Confirmed, p.Dismissed, p.Discharged, p.Assumes)
	}
	return b.String()
}

// SchemaVersion identifies the JSON report schema emitted by every
// machine-readable rendering (lint, taint, props). Bump it when a field
// changes meaning or goes away; adding fields keeps the version.
const SchemaVersion = "bf4.lint.v1"

// jsonReport is the machine-readable output schema: the lint fields, plus
// a "taint" or "props" summary object for those families.
type jsonReport struct {
	Schema      string        `json:"schema"`
	File        string        `json:"file"`
	Diagnostics []Diagnostic  `json:"diagnostics"`
	Errors      int           `json:"errors"`
	Warnings    int           `json:"warnings"`
	Taint       *TaintSummary `json:"taint,omitempty"`
	Props       *PropSummary  `json:"props,omitempty"`
}

// RenderJSON renders the report as stable, indented JSON.
func (r *Report) RenderJSON(file string) ([]byte, error) {
	rep := jsonReport{Schema: SchemaVersion, File: file, Diagnostics: r.Diags, Taint: r.Taint, Props: r.Props}
	if rep.Diagnostics == nil {
		rep.Diagnostics = []Diagnostic{}
	}
	rep.Errors, rep.Warnings = r.counts()
	return json.MarshalIndent(rep, "", "  ")
}
