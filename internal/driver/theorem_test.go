package driver

import (
	"testing"

	"bf4/internal/core"
	"bf4/internal/infer"
	"bf4/internal/progs"
	"bf4/internal/smt"
	"bf4/internal/solver"
)

// TestInferredPredicatesSoundAcrossCorpus is internal/infer's
// TestInferNeverRemovesGoodRuns and TestControlledBugsBecomeUnreachable over
// the 24 hand-written programs and switch@1/@2, both rounds, on solvers
// built here from nothing: they share no clause, phase or activity with the
// run's shards and bases.
//
// Which cubes Infer emits depends on the models its solver happens to return
// first, and those move whenever search does; what must not move is what
// every cube is. (1) Theorem 7.2: no forbidden cube admits a good run
// through its table — OK ∧ ¬dontCare ∧ reach(assert point) ∧ cube is Unsat,
// the assert point being the linked table's for a multi-table assertion.
// (2) Every bug the round reports controlled is Unsat under the conjunction
// of the round's predicates. An annotation file may differ from another
// run's in cubes; it may not fail either of these.
func TestInferredPredicatesSoundAcrossCorpus(t *testing.T) {
	type program struct{ name, src string }
	var programs []program
	for _, p := range progs.All() {
		if p.Name != "switch" {
			programs = append(programs, program{p.Name, p.Source})
		} else if !testing.Short() {
			programs = append(programs, program{"switch@1", progs.GenerateSwitch(1)}, program{"switch@2", progs.GenerateSwitch(2)})
		}
	}
	cubes, controlled := 0, 0
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 2
			res, err := Run(p.name, p.src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(round string, pl *core.Pipeline, rep *core.Report, inf *infer.Result) {
				f := pl.IR.F
				good := solver.New()
				good.Assert(f.And(pl.FullReach.OK, f.Not(pl.FullReach.DontCareReach)))
				for _, a := range inf.Assertions {
					from := a.Instance
					if a.Linked != nil {
						from = a.Linked
					}
					for _, cube := range a.Forbidden {
						cubes++
						if got := good.Check(pl.FullReach.Cond[from.Apply], cube); got != solver.Unsat {
							t.Errorf("%s: %s assertion on %s forbids %s, which a good run through the table satisfies (%v)",
								round, a.Source, a.Instance.Name(), cube, got)
						}
					}
				}
				under := solver.New()
				under.Assert(combinedPredicate(f, inf))
				for _, b := range rep.Bugs {
					if b.Reachable && inf.Controlled[b.Node] {
						controlled++
						if got := under.Check(b.Cond); got != solver.Unsat {
							t.Errorf("%s: %s is reported controlled and is %v under the round's predicates", round, b.Description(), got)
						}
					}
				}
			}
			check("round 0", res.Initial, res.InitialRep, res.InferResult)
			if res.Fixed != nil {
				check("final round", res.Fixed, res.FinalRep, res.FinalInfer)
			}
		})
	}
	t.Logf("%d cubes, %d controlled bugs", cubes, controlled)
	if cubes == 0 || controlled == 0 {
		t.Fatalf("checked %d cubes and %d controlled bugs: the oracle saw nothing", cubes, controlled)
	}
}

// combinedPredicate conjoins every assertion's predicate.
func combinedPredicate(f *smt.Factory, r *infer.Result) *smt.Term {
	out := f.True()
	for _, a := range r.Assertions {
		out = f.And(out, a.Predicate(f))
	}
	return out
}
