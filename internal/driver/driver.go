// Package driver orchestrates bf4's complete compile-time loop (paper
// Figure 3): find all potential bugs, infer controller annotations,
// propose fixes (missing keys + the egress-spec special case), rebuild
// the program with the fixes applied and re-infer, producing exactly the
// quantities reported in the paper's Table 1 — total bugs, bugs remaining
// after Infer, bugs remaining after fixes, keys added — plus the final
// annotations for the runtime shim and the fixed P4 source.
package driver

import (
	"fmt"
	"strings"
	"time"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/fixes"
	"bf4/internal/infer"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4/ast"
	"bf4/internal/pool"
	"bf4/internal/solver"
	"bf4/internal/spec"
)

// Config selects pipeline options for a run of Run, Props, Taint or Lint.
type Config struct {
	// IR selects the checks lowered into the program: -check=iflow sets
	// CheckInfoFlow and TaintDefaultPolicy, -check=assert sets Instrument.
	// Taint turns CheckInfoFlow on and Props sets Instrument itself.
	IR ir.Options
	// Infer's ablation switches; its Workers, Solvers, Obs and Trace are
	// Run's to set.
	Infer infer.Options
	// Workers is the run's worker count (cmd/bf4's -j): the bound of the
	// solver shards the bug checks and their rechecks are dealt to, and of
	// Run's per-instance inference fan-out; <= 0 means GOMAXPROCS.
	// Verdicts, reports, annotations and fixes are identical for every
	// value; the witness models of reachable bugs may differ, since a
	// bug's model comes from whichever shard decided it.
	Workers int
	// Obs, when non-nil, collects metrics from every layer of the run
	// (phase timings, per-query solver telemetry, pool utilization);
	// Trace, when non-nil, parents a span per pipeline phase for the
	// --trace-out tree. Both default nil (zero overhead), and every
	// artifact of the run — bug lists, annotations, fixed source — is
	// byte-identical with them on or off.
	Obs   *obs.Registry
	Trace *obs.Span
}

// DefaultConfig matches the paper's configuration.
func DefaultConfig() Config {
	return Config{IR: ir.DefaultOptions(), Infer: infer.DefaultOptions()}
}

// Result is one full bf4 run over a program (one Table 1 row).
type Result struct {
	Name string
	LoC  int

	// Bugs is the number of reachable bugs assuming arbitrary entries.
	Bugs int
	// BugsAfterInfer counts bugs still reachable under the inferred
	// single/multi-table annotations.
	BugsAfterInfer int
	// BugsAfterFixes counts bugs still reachable after adding the
	// proposed keys (and applying the egress-spec special fix) and
	// re-running inference — genuine dataplane bugs.
	BugsAfterFixes int
	// KeysAdded and TablesTouched quantify the fix (Table 1 / §5).
	KeysAdded     int
	TablesTouched int
	// Rounds counts fix-point iterations of the rebuild loop (0 when the
	// initial inference already left nothing to fix).
	Rounds int

	Runtime time.Duration

	// Artifacts of round 0, the program as written: what the -v and
	// -trace listings and the size metrics read.
	Initial     *core.Pipeline
	InitialRep  *core.Report
	InferResult *infer.Result
	// Analysis is the dataflow pre-pass of the initial program: the bug
	// checks it discharged without a solver query, and its counts.
	Analysis *analysis.Result
	// Artifacts of the last round, the program the switch runs. Fixed is
	// nil when no fixes were needed; FinalRep and FinalInfer are then
	// round 0's. Use Final, which resolves that.
	Fixed      *core.Pipeline
	FinalRep   *core.Report
	FinalInfer *infer.Result
	// Fixes accumulates every round's proposals.
	Fixes       *fixes.Result
	FixedSource string // fixed P4 program (empty when no fixes)
	Dataplane   []*core.Bug
}

// Final returns the last round's pipeline, bug report and inference
// result: three views of one compiled program, whose nodes and table
// instances key each other's maps. Mixing them with round 0's artifacts
// after a rebuild pairs maps with keys that can never match.
func (r *Result) Final() (*core.Pipeline, *core.Report, *infer.Result) {
	pl := r.Fixed
	if pl == nil {
		pl = r.Initial
	}
	return pl, r.FinalRep, r.FinalInfer
}

// Spec assembles the annotation file the shim enforces, from the final
// round alone.
func (r *Result) Spec() *spec.File {
	pl, rep, inf := r.Final()
	return spec.Build(r.Name, pl.IR, rep, inf, r.Fixes.Special)
}

// maxRebuilds bounds the rebuild rounds after round 0.
const maxRebuilds = 3

// Run executes the full bf4 loop on a program: round 0 on the program as
// written, then a rebuild round on the program with the fixes so far
// applied for as long as a round proposes a fix no earlier one did
// (Figure 3's loop back from "fixes" to "infer predicates"; the corpus
// converges in one rebuild, but nothing guarantees that in general). The
// last round's program is the one FixedSource prints: what a round past
// maxRebuilds would have added is not reported as a fix.
func Run(name, src string, cfg Config) (*Result, error) {
	start := time.Now()
	cfg.Infer.Workers = cfg.Workers
	cfg.Infer.Obs = cfg.Obs
	// The run's solver memory: what one round is done with, the next
	// overwrites. It lives as long as this call — a pool outliving a run
	// would make a second run in the process warmer than a user's only one —
	// and is used on this goroutine only.
	cfg.Infer.Solvers = solver.NewPool(cfg.Obs)
	res := &Result{Name: name, LoC: countLoC(src), Fixes: &fixes.Result{Keys: map[string][]string{}}}

	for n := 0; ; n++ {
		t, err := round(n, src, res.Fixes, cfg)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			res.Initial, res.InitialRep, res.InferResult, res.Analysis = t.pl, t.rep, t.inf, t.ar
			res.Bugs = t.rep.NumReachable()
			res.BugsAfterInfer = len(t.inf.Uncontrolled)
			res.Fixes.Unfixable = t.fx.Unfixable
		} else {
			res.Fixed, res.Rounds = t.pl, n
		}
		res.FinalRep, res.FinalInfer = t.rep, t.inf
		res.BugsAfterFixes = len(t.inf.Uncontrolled)
		res.Dataplane = t.inf.Uncontrolled

		// A round that proposes nothing new ends the loop: what it left
		// uncontrolled are genuine dataplane bugs.
		if n == maxRebuilds || !res.Fixes.Merge(t.fx) {
			break
		}
		res.KeysAdded = res.Fixes.TotalKeys()
		res.TablesTouched = res.Fixes.TablesTouched()
	}

	if res.Fixed != nil {
		res.FixedSource = ast.Print(res.Fixed.AST)
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// turn is what one round of the loop produces.
type turn struct {
	pl  *core.Pipeline
	ar  *analysis.Result
	rep *core.Report
	inf *infer.Result
	fx  *fixes.Result
}

// round is one turn of the loop: compile src with the fixes applied (none
// in round 0), find the bugs (the dataflow pre-pass retires the checks it
// can prove unreachable, the solver decides the rest), infer annotations,
// and propose fixes for what they leave uncontrolled. Round 0's phases are
// top-level spans of cfg.Trace; a later round is one "rebuild" phase, timed
// whole, with only analysis and findbugs as spans of their own beneath it.
func round(n int, src string, fx *fixes.Result, cfg Config) (turn, error) {
	parent := cfg.Trace
	if n > 0 {
		var done func()
		parent, done = obs.StartPhase(cfg.Obs, cfg.Trace, "rebuild")
		defer done()
	}
	phase := func(name string) (*obs.Span, func()) {
		if n > 0 {
			return parent, func() {}
		}
		return obs.StartPhase(cfg.Obs, parent, name)
	}

	sp, done := phase("compile")
	pl, err := compile(src, fx, cfg, sp)
	done()
	if err != nil {
		if n > 0 {
			err = fmt.Errorf("rebuild with fixes: %w", err)
		}
		return turn{}, err
	}

	_, done = obs.StartPhase(cfg.Obs, parent, "analysis")
	ar := analysis.Discharge(pl.IR)
	done()
	rep := pl.FindBugsWith(pl.IR.Bugs, core.FindOptions{Skip: ar.Skip, Workers: pool.Workers(cfg.Workers), Solvers: cfg.Infer.Solvers, Obs: cfg.Obs, Trace: parent})

	sp, done = phase("inference")
	cfg.Infer.Trace = sp
	inf := infer.Run(pl, rep, cfg.Infer)
	done()
	// The bug solvers have answered their last recheck and nothing else
	// holds them: they go back to the run's pool, where the next round's
	// shards and bases are built in their arrays.
	cfg.Infer.Solvers.Put(rep.Shards...)
	rep.Shards = nil

	_, done = phase("fixes")
	fx = fixes.Run(pl, inf.Uncontrolled, cfg.Workers)
	done()
	return turn{pl, ar, rep, inf, fx}, nil
}

// compile parses src, applies fx to the parsed program (fixes.Apply
// type-checks the edit; nil applies nothing) and compiles it, sliced.
func compile(src string, fx *fixes.Result, cfg Config, parent *obs.Span) (*core.Pipeline, error) {
	prog, info, err := core.Frontend(src, cfg.Obs, parent)
	if err != nil {
		return nil, err
	}
	if info, err = fixes.Apply(prog, info, fx); err != nil {
		return nil, fmt.Errorf("apply fixes: %w", err)
	}
	return core.CompileWith(src, core.CompileOptions{IR: cfg.IR, AST: prog, Info: info, Obs: cfg.Obs, Trace: parent})
}

func countLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t != "" && !strings.HasPrefix(t, "//") {
			n++
		}
	}
	return n
}

// Summary renders a Table 1-style row.
func (r *Result) Summary() string {
	return fmt.Sprintf("%-24s LoC=%-5d bugs=%-3d afterInfer=%-3d afterFixes=%-3d keys=%-3d time=%s",
		r.Name, r.LoC, r.Bugs, r.BugsAfterInfer, r.BugsAfterFixes, r.KeysAdded,
		r.Runtime.Round(time.Millisecond))
}
