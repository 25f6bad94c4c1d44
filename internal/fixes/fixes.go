// Package fixes implements bf4's program-fixing pass (paper Algorithm 3):
// for each bug that annotation inference cannot control, it finds the
// last-resort table (the dominating assert point) and runs a forward
// dataflow analysis from the table's apply to the bug over the
// (vars, terms) lattice, computing the minimal set of live variables that
// determine the bug. Those variables, minus the table's existing control
// variables, become new exact-match keys. Egress-spec bugs get the
// paper's special-cased fix (drop at the start of ingress) since
// key-based fixes degenerate for them (§4.6). Apply (apply.go) makes the
// proposals edits of the parsed program, the one form a fix takes.
package fixes

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/pool"
	"bf4/internal/slice"
	"bf4/internal/smt"
)

// isForeignBugCheck reports whether n is an instrumentation check
// guarding a DIFFERENT bug. Such branches are not program logic — in the
// uninstrumented program control always flows to the continue side — so
// their reads must not become keys for the bug under repair. Keeping the
// bug's own guard is what makes its determining variables live.
func isForeignBugCheck(n *ir.Node, bug *ir.Node) bool {
	if n.Kind != ir.Branch || len(n.Succs) != 2 {
		return false
	}
	t := n.Succs[0]
	for i := 0; i < 3 && t != nil; i++ {
		if t.Kind == ir.BugTerm {
			return t != bug
		}
		if t.Kind != ir.Nop || len(t.Succs) != 1 {
			return false
		}
		t = t.Succs[0]
	}
	return false
}

// isAssumeBranch reports whether a branch encodes an assumption: its
// false successor leads (only) to the unreachable terminal.
func isAssumeBranch(n *ir.Node) bool {
	if n.Kind != ir.Branch || len(n.Succs) != 2 {
		return false
	}
	f := n.Succs[1]
	if f.Kind == ir.UnreachTerm {
		return true
	}
	return f.Kind == ir.Nop && len(f.Succs) == 1 && f.Succs[0].Kind == ir.UnreachTerm
}

// EgressSpecDrop is the special fix for egress-spec-not-set bugs (§4.6),
// as Result.Special holds it: Apply makes it a mark_to_drop at the top of
// ingress.
const EgressSpecDrop = "egress_spec may be unset at end of ingress: initialize it " +
	"(e.g. mark_to_drop(standard_metadata)) at the beginning of the ingress pipeline"

// Result aggregates proposed fixes.
type Result struct {
	// Keys maps table name to the key paths to add (deduplicated,
	// sorted).
	Keys map[string][]string
	// Special holds the non-key fix, EgressSpecDrop, when an
	// egress-spec-not-set bug is uncontrolled.
	Special []string
	// Unfixable lists genuine dataplane bugs: no dominating table exists
	// or the determining variables cannot be table keys.
	Unfixable []*core.Bug
}

// TotalKeys counts all proposed keys (the Table 1 "keys added" column).
func (r *Result) TotalKeys() int {
	n := 0
	for _, ks := range r.Keys {
		n += len(ks)
	}
	return n
}

// TablesTouched counts tables receiving at least one key.
func (r *Result) TablesTouched() int { return len(r.Keys) }

// Merge adds o's keys and special fix to r where r lacks them, each table's
// new keys after its old ones, and reports whether anything was added.
// o's Unfixable is not merged.
func (r *Result) Merge(o *Result) (fresh bool) {
	for t, ks := range o.Keys {
		for _, k := range ks {
			if !slices.Contains(r.Keys[t], k) {
				r.Keys[t] = append(r.Keys[t], k)
				fresh = true
			}
		}
	}
	if len(o.Special) > 0 && len(r.Special) == 0 {
		r.Special = append(r.Special, o.Special...)
		fresh = true
	}
	return fresh
}

// Run proposes fixes for every uncontrolled bug. The per-bug dataflow runs
// (TableKeys: pure functions of the pipeline) go out to at most workers
// goroutines; their answers are merged in bug order, so the result does not
// depend on the count.
func Run(pl *core.Pipeline, uncontrolled []*core.Bug, workers int) *Result {
	res := &Result{Keys: map[string][]string{}}
	seen := map[string]map[string]bool{}
	egressSuggested := false

	type proposal struct {
		keys []string
		ok   bool
	}
	proposals := pool.Map(workers, len(uncontrolled), func(i int) (p proposal) {
		if b := uncontrolled[i]; b.Kind != ir.BugEgressSpecNotSet && b.Instance != nil {
			p.keys, p.ok = TableKeys(pl, b, b.Instance)
		}
		return p
	})
	for i, b := range uncontrolled {
		if b.Kind == ir.BugEgressSpecNotSet {
			if !egressSuggested {
				res.Special = append(res.Special, EgressSpecDrop)
				egressSuggested = true
			}
			continue
		}
		if b.Instance == nil {
			res.Unfixable = append(res.Unfixable, b)
			continue
		}
		keys, ok := proposals[i].keys, proposals[i].ok
		if !ok || len(keys) == 0 {
			res.Unfixable = append(res.Unfixable, b)
			continue
		}
		t := b.Instance.Table.Name
		if seen[t] == nil {
			seen[t] = map[string]bool{}
		}
		for _, k := range keys {
			if !seen[t][k] {
				seen[t][k] = true
				res.Keys[t] = append(res.Keys[t], k)
			}
		}
	}
	for t := range res.Keys {
		sort.Strings(res.Keys[t])
	}
	return res
}

// fact is the dataflow lattice element: vars live-before-kill, terms
// killed (written) since the assert point.
type fact struct {
	vars  map[*ir.Var]bool
	terms map[*ir.Var]bool
}

func (f *fact) clone() *fact {
	nf := &fact{vars: make(map[*ir.Var]bool, len(f.vars)), terms: make(map[*ir.Var]bool, len(f.terms))}
	for v := range f.vars {
		nf.vars[v] = true
	}
	for v := range f.terms {
		nf.terms[v] = true
	}
	return nf
}

// join is the lattice meet (pairwise union, paper §4.3).
func (f *fact) join(o *fact) {
	for v := range o.vars {
		f.vars[v] = true
	}
	for v := range o.terms {
		f.terms[v] = true
	}
}

// TableKeys runs the paper's TableKeys dataflow: the returned key paths,
// added to the table, make the bug expressible over control variables.
// ok is false when some determining variable cannot be a key (e.g. it is
// another table's entry state), marking a genuine dataplane bug.
func TableKeys(pl *core.Pipeline, b *core.Bug, inst *ir.TableInstance) (keys []string, ok bool) {
	p := pl.IR
	// Region: nodes on paths Apply → bug.
	fromApply := forwardReachable(inst.Apply)
	toBug := backwardReachable(b.Node)
	region := map[*ir.Node]bool{}
	for n := range fromApply {
		if toBug[n] {
			region[n] = true
		}
	}
	if !region[b.Node] || !region[inst.Apply] {
		return nil, false
	}
	// Slice with respect to this bug: only relevant statements transfer.
	keep, _ := slice.WRTNodes(p, []*ir.Node{b.Node})

	controlled := map[*ir.Var]bool{}
	collectControl := func(vs ...*ir.Var) {
		for _, v := range vs {
			if v != nil {
				controlled[v] = true
			}
		}
	}
	collectControl(inst.HitVar, inst.ActVar)
	collectControl(inst.KeyVars...)
	collectControl(inst.MaskVars...)
	for _, ps := range inst.ParamVars {
		collectControl(ps...)
	}
	collectControl(inst.DefaultParamVars...)
	// Variables the table already matches on with EXACT keys are
	// controlled too: an entry's exact keys functionally determine them
	// on the hit path (the paper's Vt set). Ternary/lpm keys do not — a
	// zero mask leaves the variable free, which is precisely why Fixes
	// sometimes adds an exact key over an expression the table already
	// matches ternary on. Recognize plain variable keys and the
	// ite(valid,1,0) encoding of isValid() keys.
	for j, kt := range inst.KeyTerms {
		if inst.Table.Keys[j].MatchKind != "exact" {
			continue
		}
		if v, okv := p.Vars[kt.Name()]; okv && kt == v.Term {
			controlled[v] = true
		}
		if kt.Op() == smt.OpIte {
			if c := kt.Arg(0); c.Op() == smt.OpVar {
				if v, okv := p.Vars[c.Name()]; okv {
					controlled[v] = true
				}
			}
		}
	}

	// Forward dataflow in topological order within the region.
	facts := map[*ir.Node]*fact{inst.Apply: {vars: map[*ir.Var]bool{}, terms: map[*ir.Var]bool{}}}
	for _, n := range p.Topo() {
		if !region[n] {
			continue
		}
		in := facts[n]
		if in == nil {
			continue // unreachable within region (shouldn't happen)
		}
		out := in
		if keep[n] && !isForeignBugCheck(n, b.Node) {
			out = transfer(p, n, in)
		} else if n.Kind == ir.Assign || n.Kind == ir.Havoc {
			// Kill set still applies even to sliced-out writes.
			out = in.clone()
			out.terms[n.Var] = true
		}
		for _, s := range n.Succs {
			if !region[s] {
				continue
			}
			if facts[s] == nil {
				facts[s] = out.clone()
			} else {
				facts[s].join(out)
			}
		}
	}
	bugFact := facts[b.Node]
	if bugFact == nil {
		return nil, false
	}

	var missing []*ir.Var
	for v := range bugFact.vars {
		if !controlled[v] {
			missing = append(missing, v)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].Name < missing[j].Name })

	ok = true
	for _, v := range missing {
		path, keyable := varToKeyPath(v)
		if !keyable {
			ok = false
			continue
		}
		keys = append(keys, path)
	}
	return keys, ok
}

// transfer applies the paper's transfer function:
// vars' = vars ∪ (reads(stat) \ terms), terms' = terms ∪ writes(stat).
func transfer(p *ir.Program, n *ir.Node, in *fact) *fact {
	out := in.clone()
	switch n.Kind {
	case ir.Branch:
		// Assume branches (match relations; false side is unreachable)
		// only select which entry is hit — they do not determine whether
		// the bug fires for a fixed entry, so their reads are not key
		// candidates.
		if isAssumeBranch(n) {
			break
		}
		for _, vt := range n.Expr.Vars(nil) {
			if v, okv := p.Vars[vt.Name()]; okv && !out.terms[v] {
				out.vars[v] = true
			}
		}
	case ir.Assign:
		for _, vt := range n.Expr.Vars(nil) {
			if v, okv := p.Vars[vt.Name()]; okv && !out.terms[v] {
				out.vars[v] = true
			}
		}
		out.terms[n.Var] = true
	case ir.Havoc:
		out.terms[n.Var] = true
	}
	return out
}

// varToKeyPath converts an IR variable into a P4 key expression path.
func varToKeyPath(v *ir.Var) (string, bool) {
	name := v.Name
	switch {
	case strings.HasPrefix(name, "pcn_"), strings.HasPrefix(name, "$"):
		// Table-entry state or instrumentation shadows can't be matched
		// as keys: genuine dataplane bug territory.
		return "", false
	case strings.HasSuffix(name, ".$valid"):
		return strings.TrimSuffix(name, ".$valid") + ".isValid()", true
	case strings.HasSuffix(name, ".$next"):
		return "", false
	default:
		return name, true
	}
}

// Describe renders the proposed fixes for human consumption.
func (r *Result) Describe() string {
	var b strings.Builder
	tables := make([]string, 0, len(r.Keys))
	for t := range r.Keys {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		fmt.Fprintf(&b, "table %s: add keys { %s }\n", t, strings.Join(r.Keys[t], ", "))
	}
	for _, s := range r.Special {
		fmt.Fprintf(&b, "suggestion: %s\n", s)
	}
	for _, u := range r.Unfixable {
		fmt.Fprintf(&b, "dataplane bug (no key-based fix): %s\n", u.Description())
	}
	return b.String()
}

func forwardReachable(n *ir.Node) map[*ir.Node]bool {
	out := map[*ir.Node]bool{}
	stack := []*ir.Node{n}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[x] {
			continue
		}
		out[x] = true
		stack = append(stack, x.Succs...)
	}
	return out
}

func backwardReachable(n *ir.Node) map[*ir.Node]bool {
	out := map[*ir.Node]bool{}
	stack := []*ir.Node{n}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[x] {
			continue
		}
		out[x] = true
		stack = append(stack, x.Preds...)
	}
	return out
}
