// Package spec defines bf4's controller-assertion file format: the
// artifact the compile-time analysis hands to the runtime shim (paper
// §4.4). A spec file carries the table schemas (keys, match kinds,
// widths, actions) and, per table, the forbidden rule shapes inferred by
// internal/infer, serialized as S-expressions over the tables' control
// variables. The format is JSON on the wire with a human-readable
// SQL-like rendering (the paper's "condition header + condition body").
package spec

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"bf4/internal/core"
	"bf4/internal/infer"
	"bf4/internal/ir"
	"bf4/internal/smt"
)

// KeySchema describes one table key.
type KeySchema struct {
	Path      string `json:"path"`
	MatchKind string `json:"match_kind"`
	Width     int    `json:"width"`
	// Synthesized marks keys added by the Fixes algorithm; the runtime
	// API for these tables changed (paper §5).
	Synthesized bool `json:"synthesized,omitempty"`
}

// ParamSchema describes one action parameter.
type ParamSchema struct {
	Name  string `json:"name"`
	Width int    `json:"width"`
}

// ActionSchema describes one action bound to a table.
type ActionSchema struct {
	Name   string        `json:"name"`
	Params []ParamSchema `json:"params,omitempty"`
	// Index is the action_run selector value used in assertions.
	Index int `json:"index"`
	// Buggy marks actions containing a reachable bug; the shim rejects
	// default-rule updates selecting them (paper §4.4).
	Buggy bool `json:"buggy,omitempty"`
}

// TableSchema is the shim-visible shape of one table.
type TableSchema struct {
	Name    string          `json:"name"`
	Keys    []KeySchema     `json:"keys"`
	Actions []*ActionSchema `json:"actions"`
	Default string          `json:"default"`
	// Prefix is the control-variable prefix assertions use
	// (e.g. "pcn_nat$0").
	Prefix string `json:"prefix"`
}

// Assertion is one inferred controller annotation.
type Assertion struct {
	Table string `json:"table"`
	// Linked names a second table for multi-table assertions.
	Linked string `json:"linked,omitempty"`
	Source string `json:"source"`
	// Forbidden holds serialized conjunctions; a rule satisfying any of
	// them must be rejected.
	Forbidden []string `json:"forbidden"`
	// Vars carries the sort of every variable the conditions mention
	// (width; 0 = boolean).
	Vars map[string]int `json:"vars"`
}

// PropertyRecord documents one user @assert property check in the spec
// artifact: where it was declared and how the verify→infer loop left
// it. "holds" means the check was proven unreachable (discharged or
// unsat), "controlled" means the inferred annotations make it
// unreachable (the shim enforcing them keeps the property true), and
// "violated" means a dataplane bug remains. @assume constraints don't
// appear: they shape the input space rather than get checked.
type PropertyRecord struct {
	Origin string `json:"origin"` // declaration site, file:line:col
	Text   string `json:"text"`   // predicate as written
	// Table attributes the check to the table instance whose assert
	// point dominates it (empty outside any table).
	Table  string `json:"table,omitempty"`
	Status string `json:"status"` // holds | controlled | violated
}

// File is a complete spec file.
type File struct {
	Program    string         `json:"program"`
	Tables     []*TableSchema `json:"tables"`
	Assertions []*Assertion   `json:"assertions"`
	// Properties records the user @assert checks and their outcomes.
	Properties []*PropertyRecord `json:"properties,omitempty"`
	// Suggestions carries non-enforceable advice (egress-spec fix).
	Suggestions []string `json:"suggestions,omitempty"`
}

// Build assembles a spec file from inference results. rep (optional)
// supplies bug locations so that actions containing reachable bugs are
// flagged for the shim's default-rule policy, and the user properties'
// outcomes.
//
// rep and res must be p's own — the report and the inference result of
// the compile that produced p. The buggy-action and controlled-property
// lookups key on p's *ir.TableInstance and *ir.Node pointers, so a report
// of another compile of the same source (round 0's, next to the rebuilt
// program) matches nothing and the file silently flags no action.
// driver.Result.Spec is the caller that gets this right.
func Build(program string, p *ir.Program, rep *core.Report, res *infer.Result, suggestions []string) *File {
	f := &File{Program: program, Suggestions: suggestions}
	buggy := map[*ir.TableInstance]map[string]bool{}
	if rep != nil {
		for _, b := range rep.Bugs {
			if !b.Reachable || b.Instance == nil {
				continue
			}
			if act := b.Instance.ActionOfNode(b.Node); act != "" {
				if buggy[b.Instance] == nil {
					buggy[b.Instance] = map[string]bool{}
				}
				buggy[b.Instance][act] = true
			}
		}
	}
	seen := map[string]bool{}
	for _, inst := range p.Instances {
		if seen[inst.Name()] {
			continue
		}
		seen[inst.Name()] = true
		ts := schemaFor(inst)
		for _, as := range ts.Actions {
			if buggy[inst][as.Name] {
				as.Buggy = true
			}
		}
		f.Tables = append(f.Tables, ts)
	}
	sort.Slice(f.Tables, func(i, j int) bool { return f.Tables[i].Prefix < f.Tables[j].Prefix })
	if rep != nil {
		for _, b := range rep.Bugs {
			if b.Kind != ir.BugAssertFail || b.Node.Prop == nil {
				continue
			}
			pr := &PropertyRecord{Origin: b.Node.Prop.Origin, Text: b.Node.Prop.Text}
			if b.Instance != nil {
				pr.Table = b.Instance.Table.Name
			}
			switch {
			case !b.Reachable:
				pr.Status = "holds"
			case res.Controlled[b.Node]:
				pr.Status = "controlled"
			default:
				pr.Status = "violated"
			}
			f.Properties = append(f.Properties, pr)
		}
		sort.Slice(f.Properties, func(i, j int) bool {
			a, b := f.Properties[i], f.Properties[j]
			if a.Origin != b.Origin {
				return a.Origin < b.Origin
			}
			return a.Table < b.Table
		})
	}
	for _, a := range res.Assertions {
		sa := &Assertion{
			Table:  a.Instance.Table.Name,
			Source: a.Source,
			Vars:   map[string]int{},
		}
		if a.Linked != nil {
			sa.Linked = a.Linked.Table.Name
		}
		for _, t := range a.Forbidden {
			sa.Forbidden = append(sa.Forbidden, smt.Serialize(t))
			for _, vt := range t.Vars(nil) {
				sa.Vars[vt.Name()] = vt.Sort().Width
			}
		}
		f.Assertions = append(f.Assertions, sa)
	}
	return f
}

func schemaFor(inst *ir.TableInstance) *TableSchema {
	t := inst.Table
	ts := &TableSchema{Name: t.Name, Prefix: inst.Prefix(), Default: t.Default.Name}
	for _, k := range t.Keys {
		ts.Keys = append(ts.Keys, KeySchema{
			Path: k.Path, MatchKind: k.MatchKind, Width: k.Width,
			Synthesized: k.Synthesized,
		})
	}
	names := make([]string, 0, len(inst.ActIndex))
	for name := range inst.ActIndex {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		as := &ActionSchema{Name: name, Index: inst.ActIndex[name]}
		for _, ai := range t.Actions {
			if ai.Name == name {
				for _, pi := range ai.Params {
					as.Params = append(as.Params, ParamSchema{Name: pi.Name, Width: pi.Width})
				}
			}
		}
		if name == t.Default.Name && len(as.Params) == 0 {
			for _, pi := range t.Default.Params {
				as.Params = append(as.Params, ParamSchema{Name: pi.Name, Width: pi.Width})
			}
		}
		ts.Actions = append(ts.Actions, as)
	}
	return ts
}

// Marshal renders the file as JSON.
func (f *File) Marshal() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// Parse reads a JSON spec file.
func Parse(data []byte) (*File, error) {
	f := &File{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return f, nil
}

// AssertionsFor returns the assertions that mention a table (as primary
// or linked), pre-clustered the way the shim needs them (paper §4.4 step
// a: constant-time dispatch by table id).
func (f *File) AssertionsFor(table string) []*Assertion {
	var out []*Assertion
	for _, a := range f.Assertions {
		if a.Table == table || a.Linked == table {
			out = append(out, a)
		}
	}
	return out
}

// Render produces the paper's SQL-like human-readable form: a condition
// header naming the referenced variables and a body over them.
func (f *File) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- bf4 controller assertions for %s\n", f.Program)
	for _, s := range f.Suggestions {
		fmt.Fprintf(&b, "-- suggestion: %s\n", s)
	}
	for _, pr := range f.Properties {
		where := ""
		if pr.Table != "" {
			where = " in " + pr.Table
		}
		fmt.Fprintf(&b, "-- property (%s) @ %s%s: %s\n", pr.Text, pr.Origin, where, pr.Status)
	}
	for _, a := range f.Assertions {
		names := make([]string, 0, len(a.Vars))
		for n := range a.Vars {
			names = append(names, n)
		}
		sort.Strings(names)
		on := a.Table
		if a.Linked != "" {
			on += ", " + a.Linked
		}
		fmt.Fprintf(&b, "ASSERT ON %s  -- %s\n", on, a.Source)
		fmt.Fprintf(&b, "  WITH (%s)\n", strings.Join(names, ", "))
		for _, forb := range a.Forbidden {
			fmt.Fprintf(&b, "  FORBID %s\n", forb)
		}
	}
	return b.String()
}

// ParseForbidden reconstructs a forbidden condition as a boolean term.
// The file is outside input: a variable width out of range, a condition
// smt.Parse refuses, or one that is not boolean is an error.
func (a *Assertion) ParseForbidden(f *smt.Factory, i int) (*smt.Term, error) {
	sorts := smt.VarSorts{}
	for name, w := range a.Vars {
		if w < 0 || w > smt.MaxWidth {
			return nil, fmt.Errorf("spec: variable %s has width %d, want 0 (Bool) to %d", name, w, smt.MaxWidth)
		}
		sorts[name] = smt.Sort{Width: w}
	}
	t, err := smt.Parse(f, a.Forbidden[i], sorts)
	if err != nil {
		return nil, fmt.Errorf("spec: forbidden condition %d: %w", i, err)
	}
	if !t.Sort().IsBool() {
		return nil, fmt.Errorf("spec: forbidden condition %d is %v, want Bool", i, t.Sort())
	}
	return t, nil
}
