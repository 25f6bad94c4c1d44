package driver

import (
	"testing"

	"bf4/internal/core"
	"bf4/internal/infer"
	"bf4/internal/progs"
	"bf4/internal/smt"
)

// TestUncontrolledWitnessesAreCertificates: a bug the loop reports as
// uncontrolled comes with the run that shows it. After driver.Run, every bug
// still uncontrolled at the end of round 0 and every dataplane bug carries a
// model under which its reachability condition and the conjunction of that
// round's annotations both evaluate true, and which the concrete interpreter
// (internal/dataplane, through Counterexample) drives to that bug's node on
// that round's pipeline. Evaluator and interpreter share no code with
// bit-blasting or the CDCL core: each witness is independent evidence for a
// "still reachable under the annotations" verdict, and a witness that went
// stale — kept although a later predicate forbids its rules — fails the
// predicate evaluation here.
func TestUncontrolledWitnessesAreCertificates(t *testing.T) {
	certified := 0
	for _, p := range progs.All() {
		name, src := p.Name, p.Source
		if p.Name == "switch" {
			if testing.Short() {
				continue
			}
			// switch@2 is the smallest program where a witness goes stale and
			// its bug stays uncontrolled: two bugs of round 0 are found again
			// by the solver, twice each, and their last model is the one
			// certified here.
			name, src = "switch@2", progs.GenerateSwitch(2)
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 2
			res, err := Run(name, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			certify := func(round string, pl *core.Pipeline, inf *infer.Result, bugs []*core.Bug) {
				pred := combinedPredicate(pl.IR.F, inf)
				for _, b := range bugs {
					certified++
					if b.Model == nil {
						t.Errorf("%s: %s has no witness", round, b.Description())
						continue
					}
					if !smt.EvalBool(b.Cond, b.Model) {
						t.Errorf("%s: the witness of %s does not satisfy its reachability condition", round, b.Description())
					}
					if !smt.EvalBool(pred, b.Model) {
						t.Errorf("%s: the witness of %s uses a rule the round's annotations forbid", round, b.Description())
					}
					if _, err := pl.Counterexample(b); err != nil {
						t.Errorf("%s: the witness of %s does not replay: %v", round, b.Description(), err)
					}
				}
			}
			certify("round 0", res.Initial, res.InferResult, res.InferResult.Uncontrolled)
			final, _, finalInfer := res.Final()
			certify("final round", final, finalInfer, res.Dataplane)
		})
	}
	if certified == 0 {
		t.Fatal("no uncontrolled bug anywhere: nothing was certified")
	}
}
