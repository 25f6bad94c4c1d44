package infer

import (
	"fmt"
	"strings"
	"testing"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/progs"
)

// describeRun flattens what inference decided — the assertions with their
// cubes in order, the controlled set, the uncontrolled list in order — into
// a text two runs over one pipeline can be compared by (the terms print the
// same exactly when they are the same).
func describeRun(res *Result) string {
	var out strings.Builder
	for _, a := range res.Assertions {
		linked := ""
		if a.Linked != nil {
			linked = " linked " + a.Linked.Name()
		}
		fmt.Fprintf(&out, "assertion %s %s%s\n", a.Instance.Name(), a.Source, linked)
		for _, c := range a.Forbidden {
			fmt.Fprintf(&out, "  forbid %s\n", c)
		}
	}
	for _, b := range res.Uncontrolled {
		fmt.Fprintf(&out, "uncontrolled n%d\n", b.Node.ID)
	}
	return out.String()
}

// TestRecheckWitnessMatchesSolver holds the witness path to the solver's
// answers: inference over the corpus and switch@1, at one, two and four
// workers, decides the same assertions, the same controlled set and the same
// uncontrolled list (order included) whether a recheck tries a bug's witness
// first or sends every candidate to its shard — and where rechecks are many
// (switch@1) the witness path asks the solver strictly less. A witness check
// that skipped the predicates, or read another bug's model, would leave a
// controlled bug "reachable" and move the lists.
func TestRecheckWitnessMatchesSolver(t *testing.T) {
	type testCase struct{ name, src string }
	cases := []testCase{{"nat", natSrc}}
	for _, p := range progs.All() {
		if p.Name != "switch" {
			cases = append(cases, testCase{p.Name, p.Source})
		}
	}
	if !testing.Short() {
		cases = append(cases, testCase{"switch@1", progs.GenerateSwitch(1)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := core.Compile(c.src, ir.DefaultOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, workers := range []int{1, 2, 4} {
				// One pipeline, two reports: the terms and nodes of both runs
				// are the same objects, the bugs and their shards are not.
				// The report's shards publish to reg, Infer's own solvers
				// to nothing: the checks counted are the shards'.
				inferOn := func(solveOnly bool) (res *Result, checks int64) {
					reg := obs.NewRegistry()
					rep := pl.FindBugsWith(pl.IR.Bugs, core.FindOptions{Workers: workers, Obs: reg})
					opts := DefaultOptions()
					opts.Workers = workers
					res = run(pl, rep, opts, solveOnly)
					return res, reg.CounterValue("bf4_solver_checks_total")
				}
				witnessed, fewer := inferOn(false)
				solved, all := inferOn(true)
				if got, want := describeRun(witnessed), describeRun(solved); got != want {
					t.Errorf("workers=%d: trying witnesses first moved the result:\n--- witnesses first:\n%s--- solver only:\n%s", workers, got, want)
				}
				if len(witnessed.Controlled) != len(solved.Controlled) {
					t.Errorf("workers=%d: %d bugs controlled with witnesses tried first, %d by the solver alone", workers, len(witnessed.Controlled), len(solved.Controlled))
				}
				for n := range solved.Controlled {
					if !witnessed.Controlled[n] {
						t.Errorf("workers=%d: n%d is controlled by the solver's answer, reachable by its witness", workers, n.ID)
					}
				}
				if fewer > all || (c.name == "switch@1" && fewer == all) {
					t.Errorf("workers=%d: %d shard checks with witnesses tried first, %d without", workers, fewer, all)
				}
			}
		})
	}
}
