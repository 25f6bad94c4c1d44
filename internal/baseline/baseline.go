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
	reachable := pl.IR.Reachable()
	for _, b := range pl.IR.Bugs {
		if !reachable[b] {
			continue
		}
		if c, ok := pl.Reach.Cond[b]; ok {
			query = f.Or(query, c)
		}
	}
	s := solver.New(f)
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
	// MaxPaths bounds explored paths (0 = 1 << 20).
	MaxPaths int
	// Timeout bounds wall-clock time (0 = none).
	Timeout time.Duration
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
	p        *ir.Program
	f        *smt.Factory
	s        *solver.Solver
	opts     VeraOptions
	deadline time.Time

	visited map[*ir.Node]bool
	bugs    map[*ir.Node]bool
	paths   int
	stopped bool
	havocN  int
}

// Vera explores the program path by path.
func Vera(pl *core.Pipeline, opts VeraOptions) *VeraResult {
	start := time.Now()
	if opts.MaxPaths == 0 {
		opts.MaxPaths = 1 << 20
	}
	ex := &veraExplorer{
		p:       pl.IR,
		f:       pl.IR.F,
		s:       solver.New(pl.IR.F),
		opts:    opts,
		visited: map[*ir.Node]bool{},
		bugs:    map[*ir.Node]bool{},
	}
	if opts.Timeout > 0 {
		ex.deadline = start.Add(opts.Timeout)
	}
	ex.explore(pl.IR.Start, pl.IR.F.True(), nil)

	res := &VeraResult{
		Paths:     ex.paths,
		BugsHit:   ex.bugs,
		Visited:   len(ex.visited),
		Completed: !ex.stopped,
		Duration:  time.Since(start),
	}
	for range pl.IR.Reachable() {
		res.TotalNodes++
	}
	return res
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

func (ex *veraExplorer) budgetExceeded() bool {
	if ex.paths >= ex.opts.MaxPaths {
		ex.stopped = true
		return true
	}
	if !ex.deadline.IsZero() && time.Now().After(ex.deadline) {
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

// exploreTable enumerates concrete entries at an assert point (snapshot
// mode): each matching entry binds the instance's control variables to
// constants, plus one miss branch.
func (ex *veraExplorer) exploreTable(n *ir.Node, pc *smt.Term, env *veraEnv) {
	inst := n.Instance
	entries := ex.opts.Snapshot.Entries[inst.Table.Name]
	f := ex.f
	cont := n.Succs[0]

	bind := func(e *veraEnv, entry *dataplane.Entry) *veraEnv {
		e = e.set(inst.HitVar.Term, f.True())
		idx := inst.ActIndex[entry.Action]
		e = e.set(inst.ActVar.Term, f.BVConst64(int64(idx), 8))
		for j := range inst.KeyVars {
			if j < len(entry.Keys) {
				e = e.set(inst.KeyVars[j].Term, f.BVConst(entry.Keys[j].Value, inst.KeyVars[j].Sort.Width))
				if inst.MaskVars[j] != nil {
					mask := dataplane.EffectiveMaskFor(inst.Table.Keys[j], entry.Keys[j])
					e = e.set(inst.MaskVars[j].Term, f.BVConst(mask, inst.MaskVars[j].Sort.Width))
				}
			}
		}
		for pi, pv := range inst.ParamVars[entry.Action] {
			val := int64(0)
			if pi < len(entry.Params) {
				e = e.set(pv.Term, f.BVConst(entry.Params[pi], pv.Sort.Width))
				continue
			}
			e = e.set(pv.Term, f.BVConst64(val, pv.Sort.Width))
		}
		return e
	}

	for _, entry := range entries {
		if ex.budgetExceeded() {
			return
		}
		// The expansion's own match assumes will constrain the packet
		// against the bound constants; feasibility is checked per branch.
		ex.explore(cont, pc, bind(env, entry))
	}
	// Miss branch.
	missEnv := env.set(inst.HitVar.Term, f.False())
	for _, pv := range inst.DefaultParamVars {
		missEnv = missEnv.set(pv.Term, f.BVConst64(0, pv.Sort.Width))
	}
	ex.explore(cont, pc, missEnv)
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
