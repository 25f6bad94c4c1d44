package rewrite_test

import (
	"math/rand"
	"testing"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/smt"
	"bf4/internal/smt/rewrite"
	"bf4/internal/solver"
)

// TestSolverAgreement checks that a solver as solver.New builds it — with
// a private rewrite pass — and one without agree on satisfiability across
// a batch of mixed formulas, including some the rewriter folds outright,
// which exercise the tautology-skip and false-literal paths in Check.
func TestSolverAgreement(t *testing.T) {
	f := smt.NewFactory()
	x := f.BVVar("x", 8)
	y := f.BVVar("y", 8)
	p := f.BoolVar("p")
	formulas := []*smt.Term{
		f.And(p, f.Or(p, f.Eq(x, y))),
		f.And(p, f.Not(p)),
		f.Or(f.And(p, f.Ult(x, y)), f.And(p, f.Ule(y, x))),
		f.Eq(f.Add(f.BVAnd(x, f.BVConst64(0x0F, 8)), f.BVConst64(0xA0, 8)), y),
		f.Ult(f.BVOr(x, f.BVConst64(0xF0, 8)), f.BVConst64(0x10, 8)),
		f.Eq(f.Extract(f.Concat(x, y), 11, 4), f.BVConst64(0x5A, 8)),
	}
	for i, tm := range formulas {
		plain := solver.New(f)
		plain.SetRewrite(nil)
		rw := solver.New(f)
		if i == 0 && rw.Simplify(tm) != p {
			t.Fatalf("solver.New installed no rewrite pass: %s simplifies to %s, want p", tm, rw.Simplify(tm))
		}
		if got, want := rw.Check(tm), plain.Check(tm); got != want {
			t.Errorf("formula %d: rewrite solver says %v, plain says %v (%s)", i, got, want, tm)
		}
	}
}

// TestCorpusReplay replays real verification conditions: for every corpus
// program, compile, find bugs, and check that rewriting each bug's
// reachability condition preserves evaluation under pseudo-random
// environments and that the abstract domain's value contains the concrete
// evaluation. This grounds the fuzz harness in the exact term shapes the
// verifier produces (wide WP joins, table-entry symbolic reads).
func TestCorpusReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is slow")
	}
	rng := rand.New(rand.NewSource(42))
	for _, p := range progs.All() {
		if p.Name == "switch" {
			continue // generated at bench time only
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			pl, err := core.Compile(p.Source, ir.DefaultOptions(), true)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep := pl.FindBugs()
			r := rewrite.New(pl.IR.F)
			for _, b := range rep.Bugs {
				if b.Cond == nil || b.Cond.IsFalse() {
					continue
				}
				rt := r.Rewrite(b.Cond)
				vars := b.Cond.Vars(nil)
				for trial := 0; trial < 4; trial++ {
					env := make(smt.Env, len(vars))
					for _, v := range vars {
						if v.Sort().IsBool() {
							env.SetBool(v.Name(), rng.Intn(2) == 1)
						} else {
							env.SetUint64(v.Name(), rng.Uint64())
						}
					}
					if smt.EvalBool(b.Cond, env) != smt.EvalBool(rt, env) {
						t.Fatalf("bug %s: rewrite changed evaluation\noriginal  %s\nrewritten %s",
							b.Node.Comment, b.Cond, rt)
					}
				}
			}
		})
	}
}
