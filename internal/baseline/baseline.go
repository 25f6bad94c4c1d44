// Package baseline implements the two comparison systems of the paper's
// §5.2:
//
//   - P4VApprox mirrors how the paper approximates p4v: conjoin the
//     weakest preconditions of every bug into a single disjunctive query
//     and ask the solver once whether any bug is reachable. p4v then
//     relies on a human to add control-plane assertions and re-run; bf4's
//     advantage is automating that loop.
//
//   - Vera is a Vera-style symbolic-execution explorer: path-by-path DFS
//     over the program with per-branch satisfiability checks. With a
//     concrete snapshot it enumerates entry matches exactly (fast, but
//     verifies only that one snapshot); with symbolic entries the path
//     count explodes and exploration is budgeted, reporting the achieved
//     coverage — reproducing the paper's "didn't finish, ~30% coverage"
//     observation.
package baseline

import (
	"fmt"
	"time"

	"bf4/internal/core"
	"bf4/internal/dataplane"
	"bf4/internal/ir"
	"bf4/internal/smt"
	"bf4/internal/solver"
)

// P4VResult is the outcome of the monolithic p4v-style query.
type P4VResult struct {
	AnyBugReachable bool
	// Model is a witness input when reachable.
	Model    smt.Env
	Duration time.Duration
}

// P4VApprox runs the single-query p4v approximation.
func P4VApprox(pl *core.Pipeline) *P4VResult {
	start := time.Now()
	f := pl.IR.F
	query := f.False()
	// wp.Compute gives a condition to exactly the nodes Start reaches.
	for _, b := range pl.IR.Bugs {
		if c, ok := pl.Reach.Cond[b]; ok {
			query = f.Or(query, c)
		}
	}
	s := solver.New()
	res := &P4VResult{}
	if s.Check(query) == solver.Sat {
		res.AnyBugReachable = true
		res.Model = s.Model()
	}
	res.Duration = time.Since(start)
	return res
}

// VeraOptions bound the symbolic exploration.
type VeraOptions struct {
	// Snapshot, when non-nil, runs concrete-entry mode (the paper's
	// per-snapshot Vera). Nil explores symbolic entries.
	Snapshot *dataplane.Snapshot
	// MaxPaths bounds explored paths (0 = 1 << 20). It is the only
	// budget, so an exploration's paths, the bugs it hits and the nodes it
	// visits repeat from run to run and from machine to machine.
	MaxPaths int
}

// VeraResult summarizes an exploration.
type VeraResult struct {
	Paths      int
	BugsHit    map[*ir.Node]bool
	Visited    int
	TotalNodes int
	Completed  bool
	Duration   time.Duration
}

// Coverage is the fraction of reachable CFG nodes visited.
func (r *VeraResult) Coverage() float64 {
	if r.TotalNodes == 0 {
		return 0
	}
	return float64(r.Visited) / float64(r.TotalNodes)
}

type veraExplorer struct {
	f    *smt.Factory
	s    *solver.Solver
	opts VeraOptions

	visited map[*ir.Node]bool
	bugs    map[*ir.Node]bool
	paths   int
	stopped bool
	havocN  int
	// err ends the exploration: a snapshot that dataplane.Interp refuses.
	err error
	// onBug, when set, sees the condition of every path that reaches a bug.
	onBug func(bug *ir.Node, pc *smt.Term)
}

// Vera explores the program path by path. In snapshot mode a table runs
// as dataplane.Interp runs it; a snapshot Interp refuses (an entry or a
// default whose action the table does not list) is an error.
func Vera(pl *core.Pipeline, opts VeraOptions) (*VeraResult, error) {
	return vera(pl, opts, nil)
}

func vera(pl *core.Pipeline, opts VeraOptions, onBug func(*ir.Node, *smt.Term)) (*VeraResult, error) {
	start := time.Now()
	if opts.MaxPaths == 0 {
		opts.MaxPaths = 1 << 20
	}
	ex := &veraExplorer{
		f:       pl.IR.F,
		s:       solver.New(),
		opts:    opts,
		visited: map[*ir.Node]bool{},
		bugs:    map[*ir.Node]bool{},
		onBug:   onBug,
	}
	ex.explore(pl.IR.Start, pl.IR.F.True(), nil)
	if ex.err != nil {
		return nil, ex.err
	}

	return &VeraResult{
		Paths:      ex.paths,
		BugsHit:    ex.bugs,
		Visited:    len(ex.visited),
		TotalNodes: len(pl.IR.Topo()),
		Completed:  !ex.stopped,
		Duration:   time.Since(start),
	}, nil
}

type veraEnv struct {
	parent *veraEnv
	key    *smt.Term
	val    *smt.Term
}

func (e *veraEnv) get(k *smt.Term) *smt.Term {
	for n := e; n != nil; n = n.parent {
		if n.key == k {
			return n.val
		}
	}
	return nil
}

func (e *veraEnv) set(k, v *smt.Term) *veraEnv {
	return &veraEnv{parent: e, key: k, val: v}
}

func (ex *veraExplorer) subst(t *smt.Term, e *veraEnv) *smt.Term {
	if e == nil {
		return t
	}
	m := map[*smt.Term]*smt.Term{}
	for _, vt := range t.Vars(nil) {
		if v := e.get(vt); v != nil && v != vt {
			m[vt] = v
		}
	}
	if len(m) == 0 {
		return t
	}
	return smt.Substitute(ex.f, t, m)
}

// budgetExceeded reports whether the exploration must stop: its budget
// is spent, or an error ended it.
func (ex *veraExplorer) budgetExceeded() bool {
	if ex.err != nil {
		return true
	}
	if ex.paths >= ex.opts.MaxPaths {
		ex.stopped = true
		return true
	}
	return false
}

func (ex *veraExplorer) explore(n *ir.Node, pc *smt.Term, env *veraEnv) {
	for {
		if ex.budgetExceeded() {
			return
		}
		ex.visited[n] = true
		switch n.Kind {
		case ir.BugTerm:
			ex.paths++
			ex.bugs[n] = true
			if ex.onBug != nil {
				ex.onBug(n, pc)
			}
			return
		case ir.AcceptTerm, ir.RejectTerm, ir.UnreachTerm:
			ex.paths++
			return
		case ir.Assign:
			env = env.set(n.Var.Term, ex.subst(n.Expr, env))
		case ir.Havoc:
			ex.havocN++
			fresh := ex.f.Var(n.Var.Name+"$vera"+itoa(ex.havocN), n.Var.Sort)
			env = env.set(n.Var.Term, fresh)
		case ir.AssertPoint:
			if ex.opts.Snapshot != nil {
				ex.exploreTable(n, pc, env)
				return
			}
		case ir.Branch:
			cond := ex.subst(n.Expr, env)
			if cond.IsTrue() {
				n = n.Succs[0]
				continue
			}
			if cond.IsFalse() {
				n = n.Succs[1]
				continue
			}
			tPC := ex.f.And(pc, cond)
			if ex.s.Check(tPC) == solver.Sat {
				ex.explore(n.Succs[0], tPC, env)
			}
			if ex.budgetExceeded() {
				return
			}
			fPC := ex.f.And(pc, ex.f.Not(cond))
			if ex.s.Check(fPC) != solver.Sat {
				ex.paths++
				return
			}
			pc = fPC
			n = n.Succs[1]
			continue
		}
		if len(n.Succs) == 0 {
			ex.paths++
			return
		}
		n = n.Succs[0]
	}
}

// exploreTable runs a table on the snapshot (snapshot mode) as
// dataplane.Interp's applyTable does. Each entry runs on the packets it
// matches that no entry ranking before it matches, with the instance's
// control variables bound to its constants; the miss runs on the packets
// no entry matches. On a miss the declared default runs with the
// snapshot's parameters (zero without a snapshot default); another of
// the table's actions made the default runs on the hit side, as an entry
// that matches every packet.
func (ex *veraExplorer) exploreTable(n *ir.Node, pc *smt.Term, env *veraEnv) {
	inst := n.Instance
	t := inst.Table
	f := ex.f
	cont := n.Succs[0]

	keys := make([]*smt.Term, len(inst.KeyVars))
	for j, kv := range inst.KeyVars {
		keys[j] = f.BVConst64(0, kv.Sort.Width)
		if kt := inst.KeyTerms[j]; kt != nil {
			keys[j] = ex.subst(kt, env)
		}
	}
	entries := ex.opts.Snapshot.Entries[t.Name]
	matches := make([]*smt.Term, len(entries))
	ranks := make([]int, len(entries))
	for i, entry := range entries {
		matches[i] = f.False()
		if rank, ok := dataplane.Rank(t, entry); ok {
			matches[i], ranks[i] = f.True(), rank
			for j, k := range t.Keys {
				mask := dataplane.EffectiveMaskFor(k, entry.Keys[j]).Big()
				w := inst.KeyVars[j].Sort.Width
				matches[i] = f.And(matches[i], f.Eq(f.BVAnd(keys[j], f.BVConst(mask, w)),
					f.BVConst(mask.And(mask, entry.Keys[j].Value.Big()), w)))
			}
		}
	}
	missPC := pc
	for i, entry := range entries {
		missPC = f.And(missPC, f.Not(matches[i]))
		if ex.budgetExceeded() {
			return
		}
		won := f.And(pc, matches[i])
		for j := range entries {
			if ranks[j] > ranks[i] || ranks[j] == ranks[i] && j < i {
				won = f.And(won, f.Not(matches[j]))
			}
		}
		if ex.s.Check(won) != solver.Sat {
			continue
		}
		e := ex.run(inst, env, entry.Action, entry.Params)
		if e == nil {
			return
		}
		for j, kv := range inst.KeyVars {
			e = e.set(kv.Term, f.BVConst(entry.Keys[j].Value.Big(), kv.Sort.Width))
			if mv := inst.MaskVars[j]; mv != nil {
				mask := dataplane.EffectiveMaskFor(t.Keys[j], entry.Keys[j])
				e = e.set(mv.Term, f.BVConst(mask.Big(), mv.Sort.Width))
			}
		}
		ex.explore(cont, won, e)
	}
	if ex.budgetExceeded() || ex.s.Check(missPC) != solver.Sat {
		return
	}

	d := ex.opts.Snapshot.Defaults[t.Name]
	if d != nil && d.Action != t.Default.Name {
		e := ex.run(inst, env, d.Action, d.Params)
		if e == nil {
			return
		}
		// Exact keys take the packet's values, masks are empty. What this
		// cannot reproduce, like Interp, is hit reading false afterwards.
		for j, kv := range inst.KeyVars {
			e = e.set(kv.Term, keys[j])
			if mv := inst.MaskVars[j]; mv != nil {
				e = e.set(mv.Term, f.BVConst64(0, mv.Sort.Width))
			}
		}
		ex.explore(cont, missPC, e)
		return
	}
	missEnv := env.set(inst.HitVar.Term, f.False())
	for pi, pv := range inst.DefaultParamVars {
		var v dataplane.Value
		if d != nil && pi < len(d.Params) {
			v = d.Params[pi]
		}
		missEnv = missEnv.set(pv.Term, f.BVConst(v.Big(), pv.Sort.Width))
	}
	ex.explore(cont, missPC, missEnv)
}

// run binds what a hit running action binds besides the keys: hit, the
// action's index and its parameters, zero past the ones given. An action
// the table does not list ends the exploration with an error (nil env).
func (ex *veraExplorer) run(inst *ir.TableInstance, env *veraEnv, action string, params []dataplane.Value) *veraEnv {
	idx, ok := inst.ActIndex[action]
	if !ok {
		ex.err = fmt.Errorf("vera: table %s: the snapshot runs action %q, which the table does not list", inst.Table.Name, action)
		return nil
	}
	f := ex.f
	env = env.set(inst.HitVar.Term, f.True())
	env = env.set(inst.ActVar.Term, f.BVConst64(int64(idx), inst.ActVar.Sort.Width))
	for pi, pv := range inst.ParamVars[action] {
		var v dataplane.Value
		if pi < len(params) {
			v = params[pi]
		}
		env = env.set(pv.Term, f.BVConst(v.Big(), pv.Sort.Width))
	}
	return env
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
