package infer_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"bf4/internal/core"
	"bf4/internal/infer"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/solver"
	"bf4/internal/spec"
)

// renderRun flattens what a bug search plus inference decided into a
// canonical text: every bug with its verdict, the controlled set, the
// uncontrolled list in order, and the annotation file exactly as bf4 -spec
// would write it (assertions with their forbidden cubes in order). Witness
// models are left out on purpose: they are the one thing allowed to depend
// on the worker count. The solvers come from solvers (nil: each is
// allocated), and the shards go back to it once the text is written, the way
// driver.round returns them.
func renderRun(t *testing.T, name, src string, workers int, solvers *solver.Pool) string {
	t.Helper()
	pl, err := core.Compile(src, ir.DefaultOptions(), true)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep := pl.FindBugsWith(core.FindOptions{Workers: workers, Solvers: solvers})
	defer func() { solvers.Put(rep.Shards...) }()
	opts := infer.DefaultOptions()
	opts.Workers = workers
	opts.Solvers = solvers
	res := infer.Run(pl, rep, opts)

	var out strings.Builder
	for _, b := range rep.Bugs {
		fmt.Fprintf(&out, "bug %s reachable=%v\n", b.Description(), b.Reachable)
	}
	var controlled []int
	for n := range res.Controlled {
		controlled = append(controlled, n.ID)
	}
	sort.Ints(controlled)
	fmt.Fprintf(&out, "controlled %v\n", controlled)
	for _, b := range res.Uncontrolled {
		fmt.Fprintf(&out, "uncontrolled %s\n", b.Description())
	}
	data, err := spec.Build(name, pl.IR, rep, res, nil).Marshal()
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	out.Write(data)
	return out.String()
}

// TestRunDeterministicAcrossWorkerCounts is the parallel engine's core
// guarantee, end to end through FindBugsWith and Run: verdicts, the
// controlled set, the uncontrolled list and the annotation file are
// byte-identical no matter how many workers — bug-check shards, recheck
// goroutines, Infer tasks — decide them, including across separate compiles
// (fresh factories). Every shard count deals the bugs to different
// solvers with different histories, so a verdict that leaned on a
// particular solver's state would show here; switch@1 is the case with the
// most to lose on the Infer side: ten instances fork the same two warm
// bases, so any state leaking from one instance's solvers into another's
// would show as a cube that depends on the schedule. The reference run
// allocates its solvers; the others draw them from one pool that lives
// across the whole test, so every program is decided on what the programs
// before it left behind, handed out in whatever order the schedule gives.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	recycled := solver.NewPool(nil)
	type testCase struct {
		name, src string
		workers   []int
	}
	cases := []testCase{{"nat", infer.NatSrc, []int{2, 4, 8}}}
	for _, p := range progs.All() {
		if p.Name != "switch" {
			cases = append(cases, testCase{p.Name, p.Source, []int{2, 4}})
		}
	}
	if !testing.Short() {
		cases = append(cases, testCase{"switch@1", progs.GenerateSwitch(1), []int{2, 4}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := renderRun(t, c.name, c.src, 1, nil)
			if !strings.Contains(base, "reachable=true") {
				t.Fatal("no reachable bug: nothing for inference to decide")
			}
			for _, w := range c.workers {
				if got := renderRun(t, c.name, c.src, w, recycled); got != base {
					t.Errorf("workers=%d output differs from workers=1:\n--- j1:\n%s--- j%d:\n%s", w, base, w, got)
				}
			}
		})
	}
}
