package driver_test

import (
	"testing"

	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/smt"
	"bf4/internal/solver"
)

// TestVerdictsMatchReferenceSolver checks every verdict of the shipped
// pipeline against an independent reference: for all corpus programs (and
// switch@2 outside -short), each bug of driver.Run's initial report —
// reachable, unreachable or discharged by the dataflow pre-pass alike — must
// get the same answer from a fresh solver deciding Check(cond) on that one
// condition, and every reachable bug's production model — found by whichever
// of the run's solver shards decided the bug (two, where a program has checks
// enough for two) — must satisfy the condition as built. The reference
// differs from the pipeline in two things only: it shares its solver with
// no other bug, and no pre-pass skips a query for it. Each of those is
// allowed to save work, never to move a verdict; this is where an unsound
// discharge or a clause leaking from one check into a shard's next shows.
func TestVerdictsMatchReferenceSolver(t *testing.T) {
	var reachable, unreachable, byAnalysis int
	for _, p := range progs.All() {
		src := p.Source
		if p.Name == "switch" {
			if testing.Short() {
				continue
			}
			src = progs.GenerateSwitch(2)
		}
		t.Run(p.Name, func(t *testing.T) {
			cfg := driver.DefaultConfig()
			cfg.Workers = 2
			res, err := driver.Run(p.Name, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range res.InitialRep.Bugs {
				ref := solver.New(res.Initial.IR.F)
				want := ref.Check(b.Cond) == solver.Sat
				if b.Reachable != want {
					t.Errorf("%s: pipeline says reachable=%v (discharged=%v), reference solver says %v",
						b.Description(), b.Reachable, b.Discharged, want)
				}
				switch {
				case b.Reachable:
					reachable++
					if !smt.EvalBool(b.Cond, b.Model) {
						t.Errorf("%s: reported model does not satisfy the reachability condition", b.Description())
					}
				case res.Analysis.Discharge[b.Node]:
					byAnalysis++
				default:
					unreachable++
				}
			}
		})
	}
	// The comparison must not be vacuous.
	t.Logf("%d reachable, %d solver-unreachable, %d analysis-discharged",
		reachable, unreachable, byAnalysis)
	if reachable == 0 || unreachable == 0 || byAnalysis == 0 {
		t.Errorf("verdict classes not all exercised")
	}
}
