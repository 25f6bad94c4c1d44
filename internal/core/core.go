// Package core is bf4's verification engine (the paper's Figure 3): it
// compiles P4 source through the frontend, IR lowering (expansion +
// instrumentation), passification and reachability-condition generation,
// then decides per-bug reachability with the SMT solver, producing models
// (counterexample inputs) for each reachable bug and associating every
// bug with its dominating assert point (table apply).
package core

import (
	"fmt"
	"sort"
	"time"

	"bf4/internal/cfg"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/pool"
	"bf4/internal/slice"
	"bf4/internal/smt"
	"bf4/internal/solver"
	"bf4/internal/ssa"
	"bf4/internal/wp"
)

// Pipeline bundles all compiled artifacts for one P4 program.
type Pipeline struct {
	Source string
	AST    *ast.Program
	Info   *types.Info
	IR     *ir.Program
	Pass   *ssa.Result
	// Reach holds sliced reachability conditions for bug checks;
	// FullReach holds the unsliced conditions (OK formula for Infer).
	Reach      *wp.Reach
	FullReach  *wp.Reach
	Doms       *cfg.Dominators
	SliceStats slice.Stats

	// CompileTime covers frontend + IR + SSA + WP, for the evaluation
	// harness.
	CompileTime time.Duration
}

// CompileOptions configures CompileWith.
type CompileOptions struct {
	IR ir.Options
	// Slicing computes bug-reachability conditions over the slice with
	// respect to the bug nodes (paper default) rather than the whole CFG.
	Slicing bool
	// AST and Info, when set, are an already-checked frontend result —
	// src's, or src's edited by fixes.Apply; compilation then starts at the
	// lowering (CompileTime excludes the frontend). Callers that attach
	// file names to frontend diagnostics, and the driver, which applies
	// the fixes, parse first and hand the result over.
	AST  *ast.Program
	Info *types.Info
	// Obs and Trace attach observability: each stage (parse, typecheck,
	// lower, passify, wp, slice) becomes a child span of Trace and adds
	// its wall time to a bf4_phase_<stage>_ns_total counter. The
	// artifacts are identical with both nil — instrumentation only reads
	// the clock.
	Obs   *obs.Registry
	Trace *obs.Span
}

// Compile runs the frontend and all verification-form passes.
func Compile(src string, opts ir.Options, useSlicing bool) (*Pipeline, error) {
	return CompileWith(src, CompileOptions{IR: opts, Slicing: useSlicing})
}

// CompileWith is the fully-parameterised Compile.
func CompileWith(src string, opts CompileOptions) (*Pipeline, error) {
	start := time.Now()
	reg, parent := opts.Obs, opts.Trace
	prog, info := opts.AST, opts.Info
	if prog == nil {
		var err error
		if prog, info, err = Frontend(src, reg, parent); err != nil {
			return nil, err
		}
	}

	p, err := Lower(prog, info, opts.IR, reg, parent)
	if err != nil {
		return nil, err
	}

	_, done := obs.StartPhase(reg, parent, "passify")
	pass := ssa.Passify(p)
	done()

	_, done = obs.StartPhase(reg, parent, "wp")
	full := wp.Compute(p, pass, nil)
	done()

	pl := &Pipeline{
		Source:    src,
		AST:       prog,
		Info:      info,
		IR:        p,
		Pass:      pass,
		FullReach: full,
		Doms:      cfg.NewDominators(p),
	}
	if opts.Slicing {
		sp, done := obs.StartPhase(reg, parent, "slice")
		keep, stats := slice.WRTBugs(p)
		pl.SliceStats = stats
		pl.Reach = wp.Compute(p, pass, keep)
		sp.SetMetric("kept", int64(stats.SliceInstructions))
		sp.SetMetric("total", int64(stats.TotalInstructions))
		done()
	} else {
		pl.SliceStats = slice.Stats{
			TotalInstructions: p.NumInstructions(),
			SliceInstructions: p.NumInstructions(),
		}
		pl.Reach = full
	}
	pl.CompileTime = time.Since(start)
	return pl, nil
}

// Lower lowers a checked program to IR under opts, a "lower" span of
// parent. It is the last stage bf4 lint's plain mode runs.
func Lower(prog *ast.Program, info *types.Info, opts ir.Options, reg *obs.Registry, parent *obs.Span) (*ir.Program, error) {
	sp, done := obs.StartPhase(reg, parent, "lower")
	p, err := ir.Build(prog, info, opts)
	done()
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	sp.SetMetric("nodes", int64(len(p.Nodes)))
	sp.SetMetric("bugs", int64(len(p.Bugs)))
	return p, nil
}

// Frontend parses and type-checks src, each stage a span of parent.
func Frontend(src string, reg *obs.Registry, parent *obs.Span) (*ast.Program, *types.Info, error) {
	_, done := obs.StartPhase(reg, parent, "parse")
	prog, err := parser.Parse(src)
	done()
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	_, done = obs.StartPhase(reg, parent, "typecheck")
	info, err := types.Check(prog)
	done()
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck: %w", err)
	}
	return prog, info, nil
}

// Bug is one potential bug and its verification outcome.
type Bug struct {
	Node      *ir.Node
	Kind      ir.BugKind
	Reachable bool
	// Instance is the table instance whose assert point dominates the
	// bug (nil for bugs outside any table, e.g. egress_spec).
	Instance *ir.TableInstance
	// Model is the bug's witness, present when Reachable: an assignment
	// (inputs + table entries; a variable it leaves out reads zero, the
	// smt.Eval convention) under which Cond evaluates true, and with it every
	// predicate inference had asserted when the bug was last found reachable.
	// infer.Run maintains it: a recheck evaluates the witness before it asks
	// the solver, and replaces it by the solver's model when it no longer
	// holds. For a bug still uncontrolled at the end of a round it therefore
	// satisfies every annotation of that round, so Counterexample replays a
	// run that no inferred annotation forbids. The bug's shard is its only
	// writer.
	Model smt.Env
	// Cond is the bug's reachability condition.
	Cond *smt.Term
	// Discharged marks a bug whose solver query the dataflow pre-pass
	// (internal/analysis) skipped: it proved the bug node unreachable, so
	// the query is unsatisfiable and the bug is reported exactly as an
	// unsat answer would leave it.
	Discharged bool
	// Shard indexes Report.Shards: the solver that decided this bug and
	// has its condition blasted (0 for a bug no solver saw).
	Shard int
}

// Description renders a human-readable bug summary.
func (b *Bug) Description() string {
	where := ""
	if b.Instance != nil {
		where = " in table " + b.Instance.Table.Name
	}
	pos := ""
	if b.Node.Pos.IsValid() {
		pos = fmt.Sprintf(" at %s", b.Node.Pos)
	}
	return fmt.Sprintf("[%s]%s%s: %s", b.Kind, where, pos, b.Node.Comment)
}

// Report is the result of the bug-finding phase.
type Report struct {
	Pipeline  *Pipeline
	Bugs      []*Bug
	SolveTime time.Duration
	Checks    int
	// CNFVars/CNFClauses snapshot the blasted circuit size at the end of
	// bug finding, before the inference phase reuses the solvers: the sum
	// over Shards.
	CNFVars, CNFClauses int
	// Shards are the persistent solvers of the reachability checks, one
	// per worker; the bugs that needed a query are dealt to them round
	// robin (Bug.Shard). The inference phase reuses each for the predicate
	// rechecks of the bugs it decided, whose conditions it has blasted.
	Shards []*solver.Solver
}

// NumReachable counts reachable bugs.
func (r *Report) NumReachable() int {
	n := 0
	for _, b := range r.Bugs {
		if b.Reachable {
			n++
		}
	}
	return n
}

// FindBugs checks reachability of every instrumented bug (paper §4.1:
// SAT(reach(bug)) per bug node, incrementally on one solver).
func (pl *Pipeline) FindBugs() *Report {
	return pl.FindBugsWith(pl.IR.Bugs, FindOptions{})
}

// FindOptions configures the bug-finding phase.
type FindOptions struct {
	// Skip holds bug nodes internal/analysis proved statically
	// unreachable: their reachability condition is unsatisfiable, so the
	// solver query is skipped. A skipped bug still appears in the report
	// exactly as an unsat answer would leave it (Reachable false, no
	// model), with Discharged set, so every downstream consumer (Infer,
	// Fixes, the spec builder) sees an identical bug list either way.
	Skip map[*ir.Node]bool
	// Workers bounds the number of solver shards the checks are dealt to,
	// each on its own goroutine; values < 1 mean one. Verdicts do not depend
	// on it, witness models may (see checkNodes).
	Workers int
	// Solvers, when non-nil, is the run's solver pool: the shards are built
	// in solvers it has idle, and whoever ends up owning Report.Shards may
	// Put them back once no check will run on them again.
	Solvers *solver.Pool
	// Obs and Trace attach observability: the whole phase is one child
	// span of Trace (annotated with check/reachable/discharged counts),
	// the bug-check solvers publish their per-query telemetry to Obs (see
	// solver.SetObs), and pre-pass discharges land on
	// bf4_core_discharged_analysis_total. Verdicts and models are
	// identical with both nil.
	Obs   *obs.Registry
	Trace *obs.Span
}

// FindBugsWith decides the bug nodes it is given — every bug for
// driver.Run, the assert nodes for driver.Props, the label analysis's
// alarms for driver.Taint — and is the one decision loop of them all. A
// node outside the CFG has no reachability condition (wp.Compute gives one
// to exactly the nodes Start reaches) and gets no Bug record; one whose
// condition the factory folded to false is recorded unreachable without a
// query. The checks of the slice run on up to opts.Workers persistent
// solvers, which the report hands on to Infer.
func (pl *Pipeline) FindBugsWith(nodes []*ir.Node, opts FindOptions) *Report {
	start := time.Now()
	sp, done := obs.StartPhase(opts.Obs, opts.Trace, "findbugs")
	defer done()
	rep := &Report{Pipeline: pl}
	bugs := append([]*ir.Node(nil), nodes...)
	sort.Slice(bugs, func(i, j int) bool { return bugs[i].ID < bugs[j].ID })
	// queue holds the nodes that need the solver, queued their bugs.
	var queue []*ir.Node
	var queued []*Bug
	for _, bn := range bugs {
		cond := pl.Reach.Cond[bn]
		if cond == nil {
			continue
		}
		b := &Bug{Node: bn, Kind: bn.Bug, Cond: cond}
		if ap := cfg.DominatingAssertPoint(pl.Doms, bn); ap != nil {
			b.Instance = ap.Instance
		}
		rep.Bugs = append(rep.Bugs, b)
		switch {
		case cond.IsFalse():
		case opts.Skip[bn]:
			b.Discharged = true
		default:
			queue, queued = append(queue, bn), append(queued, b)
		}
	}

	checks, shards := pl.checkNodes(queue, opts.Workers, opts.Solvers, opts.Obs)
	rep.Shards = shards
	rep.Checks = len(checks)
	for i, c := range checks {
		b := queued[i]
		b.Shard = i % len(shards)
		b.Reachable, b.Model = c.reachable, c.model
	}
	for _, s := range shards {
		vars, clauses, _, _ := s.Stats()
		rep.CNFVars += vars
		rep.CNFClauses += clauses
	}
	rep.SolveTime = time.Since(start)
	if opts.Obs != nil {
		reg := opts.Obs
		reg.Counter("bf4_core_bugs_total").Add(int64(len(rep.Bugs)))
		reg.Counter("bf4_core_bugs_reachable_total").Add(int64(rep.NumReachable()))
		discharged := 0
		for _, b := range rep.Bugs {
			if b.Discharged {
				discharged++
			}
		}
		reg.Counter("bf4_core_discharged_analysis_total").Add(int64(discharged))
		sp.SetMetric("checks", int64(rep.Checks))
		sp.SetMetric("reachable", int64(rep.NumReachable()))
		sp.SetMetric("discharged", int64(discharged))
	}
	return rep
}

// nodeCheck is the outcome of deciding one bug node's reachability
// condition: reachable with a witness model, or not (the solver answered
// unsat).
type nodeCheck struct {
	reachable bool
	model     smt.Env
}

// checkNodes decides the reachability condition of every node: the
// solver half of FindBugsWith, its only caller. Node i goes to worker i
// mod workers; each worker owns a persistent solver over the shared term
// factory (hash-consing is mutex-guarded) that publishes to reg, its
// checks tagged "findbugs", and results are indexed by node position, so
// verdicts are deterministic for any worker count (models may differ
// across counts). A worker is a cold solver that blasts
// nearly the whole program for its first check and holds that CNF from then
// on, so no more are started than one per checksPerShard nodes. The
// workers' solvers, taken from solvers (nil: allocated), are returned in
// worker order; there is always at least one, even for an empty node list.
// A panic inside a check is re-raised here, on the caller's goroutine.
func (pl *Pipeline) checkNodes(nodes []*ir.Node, workers int, solvers *solver.Pool, reg *obs.Registry) ([]nodeCheck, []*solver.Solver) {
	workers = max(1, min(workers, (len(nodes)+checksPerShard-1)/checksPerShard))
	out := make([]nodeCheck, len(nodes))
	shards := make([]*solver.Solver, workers)
	pool.ForEach(workers, workers, func(w int) {
		s := solvers.New(pl.IR.F)
		s.SetObs(reg)
		shards[w] = s
		name := ShardName(w)
		for i := w; i < len(nodes); i += workers {
			s.Tag("findbugs", name, nodes[i].ID)
			out[i] = checkCond(s, pl.Reach.Cond[nodes[i]])
		}
	})
	return out, shards
}

// checksPerShard is the share of a check list that earns a solver of its
// own. A shard's cold start costs about three warm checks and its CNF about
// 25 MB at switch@2; dealt one check each, 25 shards took 1.2x the CPU and
// 1.5x the peak memory of 8 for the same verdicts (EXPERIMENTS.md E19).
const checksPerShard = 4

// ShardName is the name shard w's checks carry in the slowest-checks table.
func ShardName(w int) string { return fmt.Sprintf("shard %d", w) }

// checkCond decides one condition on s. It is checked as an assumption,
// so the condition holds for this check only while its circuit and the
// clauses learnt from it carry over to the solver's next check. Absent and
// constant-false conditions never get here: FindBugsWith records them
// without a query.
func checkCond(s *solver.Solver, cond *smt.Term) nodeCheck {
	if s.Check(cond) != solver.Sat {
		return nodeCheck{}
	}
	return nodeCheck{reachable: true, model: s.Model()}
}
