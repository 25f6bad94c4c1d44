// Package infer implements bf4's controller-annotation inference: the
// Infer algorithm (paper Algorithm 1), its fast per-table approximation
// Fast-Infer (Algorithm 2), the multi-table heuristic and the
// dontCare-constrained OK refinement (§4.2). The output is, per table
// instance, a set of forbidden rule shapes — predicates over control
// variables (keys, masks, action selector, action data) that no sane
// controller may satisfy, because every packet hitting such a rule
// triggers a bug. The runtime shim (internal/shim) enforces them; the
// verifier re-checks bug reachability under them to report "bugs after
// Infer" (Table 1). Fast-Infer and the multi-table heuristic share one
// symbolic executor (symbex), which walks only the paths that can still
// yield such a predicate and needs no bound on how many it walks.
package infer

import (
	"sort"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/pool"
	"bf4/internal/smt"
	"bf4/internal/solver"
)

// Assertion is one table's inferred controller annotation.
type Assertion struct {
	Instance *ir.TableInstance
	// Forbidden holds conjunctions over control variables; a rule
	// satisfying any of them is buggy and must be blocked.
	Forbidden []*smt.Term
	// Linked, when non-nil, marks a multi-table assertion: the forbidden
	// terms range over both instances' control variables.
	Linked *ir.TableInstance
	// Source records which algorithm produced the assertion.
	Source string
}

// Predicate returns the conjunction ¬f1 ∧ ¬f2 ∧ ... that rules must
// satisfy.
func (a *Assertion) Predicate(f *smt.Factory) *smt.Term {
	out := f.True()
	for _, t := range a.Forbidden {
		out = f.And(out, f.Not(t))
	}
	return out
}

// Result is the outcome of annotation inference over a whole program.
type Result struct {
	Assertions []*Assertion
	// Controlled maps bug nodes that became unreachable under the
	// inferred predicates.
	Controlled map[*ir.Node]bool
	// Uncontrolled lists bugs that remain reachable.
	Uncontrolled []*core.Bug

	InferCalls int
}

// Options tune the inference pipeline (ablation hooks for the
// evaluation).
type Options struct {
	// UseFastInfer runs Algorithm 2 first (paper default: on).
	UseFastInfer bool
	// UseInfer runs Algorithm 1 for bugs Fast-Infer left uncontrolled.
	UseInfer bool
	// UseMultiTable enables the multi-table heuristic.
	UseMultiTable bool
	// UseDontCare constrains OK with ¬reach(dontCare).
	UseDontCare bool
	// Workers bounds the per-table-instance inference fan-out and the
	// number of report shards rechecked at once; <= 0 means GOMAXPROCS.
	// Each worker owns its own solvers (a pair of forks of the round's two
	// warm bases; solvers are stateful and must never be shared across
	// goroutines) and results are merged in a fixed instance order, so
	// Run's output is identical for every worker count.
	Workers int
	// Solvers, when non-nil, is the run's solver pool: the two bases are
	// built in solvers it has idle and Put back when the fan-out has
	// returned, for the next round to build its own in. Run touches it on
	// its own goroutine only. The forks are not the pool's: each worker
	// allocates its pair and drops it when the fan-out returns. The
	// report's shards are not Run's to put back: its caller owns them.
	Solvers *solver.Pool
	// Obs, when non-nil, receives phase timings, pool utilization and
	// per-query solver telemetry; Trace parents the phase spans. Both
	// default nil, and the inference output — assertions, controlled set,
	// uncontrolled list — is identical either way.
	Obs   *obs.Registry
	Trace *obs.Span
}

// maxInferIterations bounds Algorithm 1's loop per assert point.
const maxInferIterations = 200

// DefaultOptions matches the paper's configuration.
func DefaultOptions() Options {
	return Options{
		UseFastInfer:  true,
		UseInfer:      true,
		UseMultiTable: true,
		UseDontCare:   true,
	}
}

// Run performs annotation inference for every assert point, following
// the paper's strategy: Fast-Infer first; Infer only for bugs Fast-Infer
// does not control; finally the multi-table heuristic for what remains.
//
// Every phase fans its work out over a bounded worker pool
// (Options.Workers). Solver reuse remains the efficiency lever, but
// ownership is strict: the bug reachability solvers from FindBugs (the
// report's shards, each with its own bugs' conditions already blasted)
// serve the predicate rechecks, one goroutine per shard, while each Infer
// worker owns a private dual and a private direct solver, copied over from
// two bases built once per round before the fan-out (warmBases) for every
// instance the worker takes: the formulas every instance needs are blasted
// once, and every instance starts from the same warm state — not from
// whatever state the worker's previous instance left behind. That is what
// keeps the inferred cubes independent of scheduling:
// models and unsat cores depend on learned-clause state, so any sharing
// between instances would make the output depend on which instances a
// worker happened to process first. Results are merged in instance order,
// so Assertions and Uncontrolled are byte-identical for every worker count.
//
// rep must still hold the shards FindBugs decided its bugs on.
func Run(pl *core.Pipeline, rep *core.Report, opts Options) *Result {
	return run(pl, rep, opts, false)
}

// run is Run; solveOnly is the rechecker's test switch.
func run(pl *core.Pipeline, rep *core.Report, opts Options, solveOnly bool) *Result {
	workers := pool.Workers(opts.Workers)
	res := &Result{Controlled: map[*ir.Node]bool{}}
	re := &rechecker{pl: pl, res: res, shards: rep.Shards, workers: workers, obs: opts.Obs, trace: opts.Trace, solveOnly: solveOnly}

	reachableBugs := make([]*core.Bug, 0, len(rep.Bugs))
	for _, b := range rep.Bugs {
		if b.Reachable {
			reachableBugs = append(reachableBugs, b)
		}
	}
	if len(reachableBugs) > 0 && len(rep.Shards) == 0 {
		panic("infer.Run: the report's solver shards have been released")
	}

	// Phase 1: Fast-Infer on every instance, in parallel (pure symbolic
	// execution over the shared term factory; no solver involved).
	if opts.UseFastInfer {
		sp, done := obs.StartPhase(opts.Obs, opts.Trace, "fastinfer")
		fast := pool.ObservedMap(opts.Obs, "fastinfer", workers, len(pl.IR.Instances), func(i int) *Assertion {
			return FastInfer(pl, pl.IR.Instances[i])
		})
		for _, a := range fast {
			if a != nil && len(a.Forbidden) > 0 {
				res.Assertions = append(res.Assertions, a)
			}
		}
		sp.SetMetric("assertions", int64(len(res.Assertions)))
		done()
	}

	// Recheck which bugs remain reachable under current predicates.
	uncontrolled := re.recheck(reachableBugs)

	// Phase 2: Infer for assert points that still dominate uncontrolled
	// bugs, one task (and one private pair of solvers) per instance.
	if opts.UseInfer && len(uncontrolled) > 0 {
		byInstance := map[*ir.TableInstance][]*core.Bug{}
		var dominated []*core.Bug
		for _, b := range uncontrolled {
			if b.Instance != nil {
				byInstance[b.Instance] = append(byInstance[b.Instance], b)
				dominated = append(dominated, b)
			}
		}
		var insts []*ir.TableInstance
		for _, inst := range pl.IR.Instances {
			if len(byInstance[inst]) > 0 {
				insts = append(insts, inst)
			}
		}
		// The bases are built once, in their own phase, and live for the
		// fan-out only: the worker pool's utilization is measured against
		// the time it had, and a round holds two solvers more than its
		// workers' own for no longer than it forks from them.
		var dualBase, directBase *solver.Solver
		if len(insts) > 0 {
			_, basesDone := obs.StartPhase(opts.Obs, opts.Trace, "inferbase")
			dualBase, directBase = warmBases(pl, dominated, opts)
			basesDone()
		}
		sp, phaseDone := obs.StartPhase(opts.Obs, opts.Trace, "infer")
		type inferOut struct {
			a      *Assertion
			calls  int
			capped bool
		}
		// A worker's fork pair is wanted again by its next instance and by
		// nothing after the fan-out: it is allocated for the worker's first
		// instance, copied over from the bases for each one, and dropped
		// with pairs when the fan-out returns, so at most one pair a worker
		// exists and none is held while the round's other phases and the
		// next round's compile run. Which instances share a pair depends on
		// scheduling; what is in it after CopyFrom does not.
		pairs := make([]forkPair, min(workers, len(insts)))
		outs := make([]inferOut, len(insts))
		pool.ObservedForEach(opts.Obs, "infer", workers, len(insts), func(w, i int) {
			out := &outs[i]
			out.a, out.capped = inferShared(pl, &pairs[w], dualBase, directBase, insts[i], byInstance[insts[i]], &out.calls)
		})
		opts.Solvers.Put(dualBase, directBase)
		capped := 0
		for _, o := range outs {
			res.InferCalls += o.calls
			if o.capped {
				capped++
			}
			if o.a != nil && len(o.a.Forbidden) > 0 {
				res.Assertions = append(res.Assertions, o.a)
			}
		}
		if opts.Obs != nil {
			opts.Obs.Counter("bf4_infer_calls_total").Add(int64(res.InferCalls))
			opts.Obs.Counter("bf4_infer_iteration_cap_total").Add(int64(capped))
		}
		sp.SetMetric("instances", int64(len(insts)))
		sp.SetMetric("calls", int64(res.InferCalls))
		sp.SetMetric("capped", int64(capped))
		phaseDone()
		uncontrolled = re.recheck(uncontrolled)
	}

	// Phase 3: multi-table heuristic for the stragglers.
	if opts.UseMultiTable && len(uncontrolled) > 0 {
		_, done := obs.StartPhase(opts.Obs, opts.Trace, "multitable")
		for _, a := range MultiTable(pl, uncontrolled, workers, opts.Obs) {
			if len(a.Forbidden) > 0 {
				res.Assertions = append(res.Assertions, a)
			}
		}
		done()
		uncontrolled = re.recheck(uncontrolled)
	}

	res.Uncontrolled = uncontrolled
	return res
}

// rechecker incrementally re-verifies bug reachability under the growing
// predicate set, asserting only assertions added since the last call and
// re-checking only still-uncontrolled bugs. The work is split by shard:
// every bug is rechecked on the solver that first decided it.
type rechecker struct {
	pl      *core.Pipeline
	res     *Result
	shards  []*solver.Solver
	preds   []*smt.Term // the predicate of res.Assertions[i], for every one asserted so far
	workers int
	obs     *obs.Registry
	trace   *obs.Span
	// solveOnly sends every candidate to the solver, as if no bug carried a
	// witness. Only TestRecheckWitnessMatchesSolver sets it, to hold the
	// witness path to the solver's answers.
	solveOnly bool
}

// recheck returns the candidates still reachable under the predicates
// inferred so far, in candidate order, and records the others as
// controlled. Each shard, on its own goroutine, takes on the predicates
// added since the last call and decides its own candidates; a verdict is a
// SAT/UNSAT answer, so the split changes neither the result nor its order.
//
// A candidate's witness (core.Bug.Model) is tried before the solver: a total
// assignment under which the bug's condition and every predicate evaluate
// true is a model of their conjunction, whatever search produced it, so the
// bug is reachable and the solver is not asked. Only when the witness fails
// does the shard search, and a Sat answer's model becomes the bug's new
// witness. The shards serve nothing but these rechecks, so skipping a check
// changes no state any Infer query sees.
func (re *rechecker) recheck(candidates []*core.Bug) []*core.Bug {
	sp, done := obs.StartPhase(re.obs, re.trace, "recheck")
	sp.SetMetric("candidates", int64(len(candidates)))
	defer done()
	f := re.pl.IR.F
	asserted := len(re.preds)
	for _, a := range re.res.Assertions[asserted:] {
		re.preds = append(re.preds, a.Predicate(f))
	}
	reachable := make([]bool, len(candidates))
	witnessed := make([]int64, len(re.shards))
	pool.ForEach(re.workers, len(re.shards), func(_, k int) {
		s, name := re.shards[k], core.ShardName(k)
		for _, p := range re.preds[asserted:] {
			s.Assert(p)
		}
		for i, b := range candidates {
			if b.Shard != k {
				continue
			}
			if !re.solveOnly && re.witnessHolds(b) {
				reachable[i] = true
				witnessed[k]++
				continue
			}
			// The shard blasted b.Cond when it first decided the bug, so the
			// recheck reuses that circuit and only searches.
			s.Tag("recheck", name, b.Node.ID)
			if s.Check(b.Cond) == solver.Sat {
				reachable[i] = true
				b.Model = s.Model()
			}
		}
	})
	var out []*core.Bug
	for i, b := range candidates {
		if reachable[i] {
			out = append(out, b)
		} else {
			re.res.Controlled[b.Node] = true
		}
	}
	var hits int64
	for _, n := range witnessed {
		hits += n
	}
	sp.SetMetric("witnessed", hits)
	sp.SetMetric("reachable", int64(len(out)))
	re.obs.Counter("bf4_infer_recheck_witnessed_total").Add(hits)
	re.obs.Counter("bf4_infer_recheck_solved_total").Add(int64(len(candidates)) - hits)
	return out
}

// witnessHolds reports whether b's witness still certifies it reachable:
// every predicate asserted so far and b's own condition evaluate true under
// it (smt.Eval reads a variable the witness leaves out as zero, so the
// witness is a total assignment). The predicates come first: they are small,
// and they are what a new annotation breaks.
func (re *rechecker) witnessHolds(b *core.Bug) bool {
	for _, p := range re.preds {
		if !smt.EvalBool(p, b.Model) {
			return false
		}
	}
	return smt.EvalBool(b.Cond, b.Model)
}

// ------------------------------------------------------------- Infer

// atomsFor generates the atom set P for an assert point: boolean
// predicates over the instance's control variables, derived syntactically
// (paper §4.2): hit, action_run selections, zero-mask tests, value tests
// for 1-bit keys, plus any branch condition in the expansion whose
// variables are all controlled.
func atomsFor(pl *core.Pipeline, inst *ir.TableInstance) []*smt.Term {
	f := pl.IR.F
	var atoms []*smt.Term
	atoms = append(atoms, inst.HitVar.Term)
	// Iterate action indices in sorted order: the atom order feeds solver
	// assumptions, and map-range order would make unsat cores (and hence
	// the inferred cubes) vary run to run.
	idxs := make([]int, 0, len(inst.ActIndex))
	for _, idx := range inst.ActIndex {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		atoms = append(atoms, f.Eq(inst.ActVar.Term, f.BVConst64(int64(idx), 8)))
	}
	for j, k := range inst.Table.Keys {
		if inst.MaskVars[j] != nil {
			atoms = append(atoms, f.Eq(inst.MaskVars[j].Term, f.BVConst64(0, k.Width)))
		}
		if k.Width == 1 {
			atoms = append(atoms, f.Eq(inst.KeyVars[j].Term, f.BVConst64(1, 1)))
		}
	}
	// Branch conditions in the expansion region whose variables are all
	// control variables of this instance.
	controlled := controlledSet(inst)
	for _, n := range regionNodes(pl.IR, inst) {
		if n.Kind != ir.Branch {
			continue
		}
		if termControlled(n.Expr, controlled) && !n.Expr.IsTrue() && !n.Expr.IsFalse() {
			atoms = append(atoms, n.Expr)
		}
	}
	return dedupeTerms(atoms)
}

func dedupeTerms(ts []*smt.Term) []*smt.Term {
	seen := map[*smt.Term]bool{}
	out := ts[:0]
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// controlledSet returns the instance's control variables (Γ).
func controlledSet(inst *ir.TableInstance) map[string]bool {
	out := map[string]bool{}
	add := func(v *ir.Var) {
		if v != nil {
			out[v.Name] = true
		}
	}
	add(inst.HitVar)
	add(inst.ActVar)
	for _, v := range inst.KeyVars {
		add(v)
	}
	for _, v := range inst.MaskVars {
		add(v)
	}
	for _, ps := range inst.ParamVars {
		for _, v := range ps {
			add(v)
		}
	}
	for _, v := range inst.DefaultParamVars {
		add(v)
	}
	return out
}

// termControlled reports whether every variable of t (resolved to its
// base) is in the controlled set. Versioned variables other than version
// 0 are never controlled.
func termControlled(t *smt.Term, controlled map[string]bool) bool {
	return allControlled(t.Vars(nil), controlled)
}

func allControlled(vars []*smt.Term, controlled map[string]bool) bool {
	for _, vt := range vars {
		if !controlled[vt.Name()] {
			return false
		}
	}
	return true
}

// regionNodes returns the nodes of an instance's expansion (between
// Apply and Join).
func regionNodes(p *ir.Program, inst *ir.TableInstance) []*ir.Node {
	var out []*ir.Node
	seen := map[*ir.Node]bool{inst.Join: true}
	stack := []*ir.Node{inst.Apply}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		for _, s := range n.Succs {
			// Nodes created before the apply node belong to the outer
			// program (exit targets, shared terminals).
			if s.ID > inst.Apply.ID || s.Kind == ir.BugTerm {
				stack = append(stack, s)
			}
		}
	}
	return out
}

// warmBases builds the two solvers every Infer instance of a round starts
// from. dual holds the OK formula (under ¬reach(dontCare) when enabled);
// direct holds nothing but has every given bug condition blasted. Each has
// answered one query, so what an instance inherits is not just the CNF but
// saved phases, variable activities and learnt clauses of a search that
// has already walked the program once. The two are independent of each
// other, so they are built side by side when there is a second worker; both
// are taken from opts.Solvers before either starts.
func warmBases(pl *core.Pipeline, bugs []*core.Bug, opts Options) (dual, direct *solver.Solver) {
	f := pl.IR.F
	bases := [2]*solver.Solver{opts.Solvers.New(), opts.Solvers.New()}
	pool.ForEach(opts.Workers, 2, func(_, i int) {
		s := bases[i]
		s.SetObs(opts.Obs)
		s.Tag("inferbase", [2]string{"dual", "direct"}[i], -1)
		if i == 0 {
			ok := pl.FullReach.OK
			if opts.UseDontCare {
				ok = f.And(ok, f.Not(pl.FullReach.DontCareReach))
			}
			s.Assert(ok)
			s.Check()
			return
		}
		anyBug := f.False()
		for _, b := range bugs {
			anyBug = f.Or(anyBug, b.Cond)
		}
		s.Check(anyBug)
	})
	return bases[0], bases[1]
}

// forkPair is one Infer worker's pair of solvers, the copies of the round's
// bases its instances run on; nil until the worker's first instance.
type forkPair struct{ dual, direct *solver.Solver }

// inferShared runs Algorithm 1 for one instance — sample a bad run, widen
// its model to a cube over the atom set, check the cube excludes no good
// run (dual solver + unsat core generalization), block it, repeat — on
// private forks of the round's bases (see warmBases), which it only reads.
// The forks are written into pair, which the caller owns: the dual fork
// holds the OK formula, the direct fork has the bug conditions blasted and
// receives the instance's BUG disjunction. The assert point's reachability
// condition is passed as an extra assumption and filtered out of the unsat
// core, so the resulting cubes range over control-variable atoms only. capped reports that the loop stopped at
// maxInferIterations with the direct solver still Sat: the cubes found so
// far may leave bugs of the instance reachable.
func inferShared(pl *core.Pipeline, pair *forkPair, dualBase, directBase *solver.Solver, inst *ir.TableInstance, bugs []*core.Bug, calls *int) (a *Assertion, capped bool) {
	f := pl.IR.F
	atoms := atomsFor(pl, inst)
	if len(atoms) == 0 {
		return nil, false
	}
	reachAP := pl.FullReach.Cond[inst.Apply]
	if reachAP == nil {
		return nil, false
	}

	// BUG: disjunction of the dominated bugs' reachability conditions.
	bug := f.False()
	for _, b := range bugs {
		bug = f.Or(bug, b.Cond)
	}
	if bug.IsFalse() {
		return nil, false
	}

	if pair.dual == nil {
		pair.dual, pair.direct = new(solver.Solver), new(solver.Solver)
	}
	dual, direct := pair.dual.CopyFrom(dualBase), pair.direct.CopyFrom(directBase)
	dual.Tag("infer", inst.Name()+"/dual", -1)
	direct.Tag("infer", inst.Name()+"/direct", -1)
	direct.Assert(bug)

	atomSet := map[*smt.Term]bool{}
	for _, p := range atoms {
		atomSet[p] = true
		atomSet[f.Not(p)] = true
	}

	a = &Assertion{Instance: inst, Source: "infer"}
	for iter := 0; iter < maxInferIterations; iter++ {
		*calls++
		if direct.Check() != solver.Sat {
			return a, false
		}
		// The atoms range over this instance's control variables: the model
		// of those is all the cube is read from.
		model := direct.ModelOf(atoms...)
		assumptions := make([]*smt.Term, 0, len(atoms)+1)
		for _, p := range atoms {
			if smt.EvalBool(p, model) {
				assumptions = append(assumptions, p)
			} else {
				assumptions = append(assumptions, f.Not(p))
			}
		}
		cubeAll := f.And(assumptions...)
		assumptions = append(assumptions, reachAP)
		if dual.Check(assumptions...) == solver.Unsat {
			// The cube excludes no good run through the table;
			// generalize via the unsat core restricted to the atoms.
			var lits []*smt.Term
			for _, c := range dual.UnsatCore() {
				if atomSet[c] {
					lits = append(lits, c)
				}
			}
			cube := cubeAll
			if len(lits) > 0 {
				cube = f.And(lits...)
			}
			a.Forbidden = append(a.Forbidden, cube)
			direct.Assert(f.Not(cube))
		} else {
			// The cube contains good runs: block this sample and retry.
			direct.Assert(f.Not(cubeAll))
		}
	}
	return a, true
}
