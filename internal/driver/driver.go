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
	"slices"
	"strings"
	"time"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/fixes"
	"bf4/internal/infer"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/pool"
	"bf4/internal/solver"
	"bf4/internal/spec"
)

// Config selects pipeline options for a run.
type Config struct {
	IR ir.Options
	// Infer's ablation switches; its Workers, Solvers, Obs and Trace are
	// Run's to set.
	Infer infer.Options
	// Slicing enables bug-reachability slicing (paper default: on).
	Slicing bool
	// Workers is the run's worker count (cmd/bf4's -j): the bound of the
	// solver shards the bug checks and their rechecks are dealt to, and of
	// the per-instance inference fan-out; <= 0 means GOMAXPROCS. Verdicts,
	// annotations and fixes are identical for every value; the witness
	// models of reachable bugs may differ, since a bug's model comes from
	// whichever shard decided it.
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
	return Config{IR: ir.DefaultOptions(), Infer: infer.DefaultOptions(), Slicing: true}
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
	// Analysis is the static-analysis result for the initial program: the
	// bug checks the dataflow pre-pass discharged without a solver query,
	// and its lint diagnostics.
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
// written, then a rebuild round with the fixes so far applied for as long
// as a round proposes a fix no earlier one did (Figure 3's loop back from
// "fixes" to "infer predicates"; the corpus converges in one rebuild, but
// nothing guarantees that in general).
func Run(name, src string, cfg Config) (*Result, error) {
	start := time.Now()
	cfg.Infer.Workers = cfg.Workers
	cfg.Infer.Obs = cfg.Obs
	// The run's solver memory: what one round is done with, the next
	// overwrites. It lives as long as this call — a pool outliving a run
	// would make a second run in the process warmer than a user's only one.
	cfg.Infer.Solvers = solver.NewPool(cfg.Obs)
	res := &Result{Name: name, LoC: countLoC(src)}

	keys := map[string][]string{}
	for t, ks := range cfg.IR.ExtraKeys {
		keys[t] = slices.Clone(ks)
	}
	cfg.IR.ExtraKeys = keys
	for n := 0; n <= maxRebuilds; n++ {
		t, err := round(n, src, cfg)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			res.Initial, res.InitialRep, res.InferResult, res.Analysis = t.pl, t.rep, t.inf, t.ar
			res.Bugs = t.rep.NumReachable()
			res.BugsAfterInfer = len(t.inf.Uncontrolled)
			res.Fixes = &fixes.Result{Keys: map[string][]string{}, Unfixable: t.fx.Unfixable}
		} else {
			res.Fixed, res.Rounds = t.pl, n
		}
		res.FinalRep, res.FinalInfer = t.rep, t.inf
		res.BugsAfterFixes = len(t.inf.Uncontrolled)
		res.Dataplane = t.inf.Uncontrolled

		// Merge the round's proposals into the keys the next compile gets.
		// A round that proposes nothing new ends the loop: what it left
		// uncontrolled are genuine dataplane bugs.
		fresh := false
		for tbl, ks := range t.fx.Keys {
			for _, k := range ks {
				if !slices.Contains(keys[tbl], k) {
					keys[tbl] = append(keys[tbl], k)
					res.Fixes.Keys[tbl] = append(res.Fixes.Keys[tbl], k)
					fresh = true
				}
			}
		}
		if len(t.fx.Special) > 0 && !cfg.IR.InitEgressSpecDrop {
			cfg.IR.InitEgressSpecDrop = true
			res.Fixes.Special = append(res.Fixes.Special, t.fx.Special...)
			fresh = true
		}
		if !fresh {
			break
		}
		res.KeysAdded = res.Fixes.TotalKeys()
		res.TablesTouched = res.Fixes.TablesTouched()
	}

	if res.Fixed != nil {
		if fixedSrc, err := RewriteSource(src, res.Fixes); err == nil {
			res.FixedSource = fixedSrc
		}
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

// round is one turn of the loop: compile src with the keys and the
// egress-spec fix accumulated in cfg.IR, find the bugs (the dataflow
// pre-pass retires the checks it can prove unreachable, the solver decides
// the rest), infer annotations, and propose fixes for what they leave
// uncontrolled. Round 0's phases are top-level spans of cfg.Trace; a later
// round is one "rebuild" phase, timed whole, with only analysis and
// findbugs as spans of their own beneath it.
func round(n int, src string, cfg Config) (turn, error) {
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
	pl, err := core.CompileWith(src, core.CompileOptions{IR: cfg.IR, Slicing: cfg.Slicing, Obs: cfg.Obs, Trace: sp})
	done()
	if err != nil {
		if n > 0 {
			err = fmt.Errorf("rebuild with fixes: %w", err)
		}
		return turn{}, err
	}

	// Only round 0's lint and statistics are reported (Result.Analysis): a
	// rebuild round runs the part of the layer that feeds the solver.
	_, done = obs.StartPhase(cfg.Obs, parent, "analysis")
	var ar *analysis.Result
	var skip map[*ir.Node]bool
	if n == 0 {
		ar = analysis.Run(pl.IR, pl.AST)
		skip = ar.Discharge
	} else {
		skip = analysis.Discharge(pl.IR)
	}
	done()
	rep := pl.FindBugsWith(core.FindOptions{Skip: skip, Workers: pool.Workers(cfg.Workers), Solvers: cfg.Infer.Solvers, Obs: cfg.Obs, Trace: parent})

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
	fx := fixes.Run(pl, inf.Uncontrolled, cfg.Workers)
	done()
	return turn{pl, ar, rep, inf, fx}, nil
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

// RewriteSource produces the fixed P4 program: the proposed keys are
// appended to their tables (translated from canonical paths back to each
// control's parameter names) and re-printed.
func RewriteSource(src string, fx *fixes.Result) (string, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	info, err := types.Check(prog)
	if err != nil {
		return "", err
	}
	for _, d := range prog.Decls {
		ctl, ok := d.(*ast.ControlDecl)
		if !ok {
			continue
		}
		inverse := roleInverse(info, ctl)
		for _, l := range ctl.Locals {
			td, ok := l.(*ast.TableDecl)
			if !ok {
				continue
			}
			for _, keyPath := range fx.Keys[td.Name] {
				expr, err := keyExprFor(keyPath, inverse)
				if err != nil {
					continue
				}
				td.Keys = append(td.Keys, &ast.TableKey{Expr: expr, MatchKind: "exact"})
			}
		}
	}
	out := ast.Print(prog)
	if len(fx.Special) > 0 {
		out = "// bf4: " + strings.Join(fx.Special, "\n// bf4: ") + "\n" + out
	}
	return out, nil
}

// roleInverse maps canonical prefixes (hdr/meta/smeta) back to the
// control's parameter names.
func roleInverse(info *types.Info, ctl *ast.ControlDecl) map[string]string {
	inv := map[string]string{}
	var headersStruct, metaStruct *ast.StructDecl
	if info.Pipeline.Parser != nil {
		for _, p := range info.Pipeline.Parser.Params {
			if st, ok := info.ResolveType(p.Type).(*types.StructT); ok {
				switch {
				case st.Decl.Name == "standard_metadata_t":
				case p.Dir == "out":
					headersStruct = st.Decl
				case metaStruct == nil:
					metaStruct = st.Decl
				}
			}
		}
	}
	for _, p := range ctl.Params {
		st, ok := info.ResolveType(p.Type).(*types.StructT)
		if !ok {
			continue
		}
		switch {
		case st.Decl.Name == "standard_metadata_t":
			inv["smeta"] = p.Name
		case st.Decl == headersStruct:
			inv["hdr"] = p.Name
		case st.Decl == metaStruct:
			inv["meta"] = p.Name
		default:
			inv[p.Name] = p.Name
		}
	}
	return inv
}

// keyExprFor parses a canonical key path and rewrites its root to the
// control's parameter name.
func keyExprFor(path string, inverse map[string]string) (ast.Expr, error) {
	e, err := parser.ParseExpr(path)
	if err != nil {
		return nil, err
	}
	rewriteRoot(e, inverse)
	return e, nil
}

func rewriteRoot(e ast.Expr, inverse map[string]string) {
	switch x := e.(type) {
	case *ast.Ident:
		if repl, ok := inverse[x.Name]; ok {
			x.Name = repl
		}
	case *ast.Member:
		rewriteRoot(x.X, inverse)
	case *ast.IndexExpr:
		rewriteRoot(x.X, inverse)
	case *ast.CallExpr:
		rewriteRoot(x.Fun, inverse)
	}
}

// Summary renders a Table 1-style row.
func (r *Result) Summary() string {
	return fmt.Sprintf("%-24s LoC=%-5d bugs=%-3d afterInfer=%-3d afterFixes=%-3d keys=%-3d time=%s",
		r.Name, r.LoC, r.Bugs, r.BugsAfterInfer, r.BugsAfterFixes, r.KeysAdded,
		r.Runtime.Round(time.Millisecond))
}
