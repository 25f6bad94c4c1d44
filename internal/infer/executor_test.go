package infer

import (
	"slices"
	"testing"

	"bf4/internal/core"
	"bf4/internal/fixes"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/smt"
)

// TestExecutorMatchesReference holds the executor's one mutable path state
// to the reference executor of reference_test.go, which carries the path
// condition as a term and the bindings as a persistent list. Over the
// corpus and switch@1/@2 (switch@4 outside -short), each as written and as
// rebuilt with its fixes, for every table instance Fast-Infer runs on and
// for every (t1, t2) pair the multi-table heuristic may execute — t1's
// apply dominates t2's and t1's keys are a subset of t2's, whether or not
// t2 has an uncontrolled bug — both must reach the same controlled bug
// paths with the same hash-consed path conditions in the same order,
// explore the same number of paths (the maxPaths cap sees the same counts)
// and forbid the same cubes in the same order. A conjunct set that misses a
// complement or bindings learned for a true side that outlive it move
// counts and cubes from switch@1 on; an And kept as one conjunct moves a
// path count from switch@3 on (acl_0 → acl_2), so only the full run sees it.
func TestExecutorMatchesReference(t *testing.T) {
	type testCase struct{ name, src string }
	var cases []testCase
	for _, p := range progs.All() {
		if p.Name != "switch" {
			cases = append(cases, testCase{p.Name, p.Source})
		}
	}
	cases = append(cases, testCase{"switch@1", progs.GenerateSwitch(1)}, testCase{"switch@2", progs.GenerateSwitch(2)})
	if !testing.Short() {
		cases = append(cases, testCase{"switch@4", progs.GenerateSwitch(4)})
	}
	executions, capped := 0, 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := core.Compile(c.src, ir.DefaultOptions(), true)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			// The program of the rebuild round too: the keys fixes adds are
			// the matches learnEq turns into bindings.
			rep := pl.FindBugs()
			fx := fixes.Run(pl, Run(pl, rep, DefaultOptions()).Uncontrolled, 0)
			opts := ir.DefaultOptions()
			opts.ExtraKeys, opts.InitEgressSpecDrop = fx.Keys, len(fx.Special) > 0
			rebuilt, err := core.Compile(c.src, opts, true)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			for _, pl := range []*core.Pipeline{pl, rebuilt} {
				compareExecutors(t, pl, &executions, &capped)
			}
		})
	}
	t.Logf("%d executions compared, %d of them capped at maxPaths", executions, capped)
}

// compareExecutors runs both executors on every Fast-Infer instance and every
// dominating, key-subset pair of pl; see TestExecutorMatchesReference.
func compareExecutors(t *testing.T, pl *core.Pipeline, executions, capped *int) {
	t.Helper()
	same := func(what string, got, want *Assertion, gotPaths, wantPaths int) {
		t.Helper()
		*executions++
		if wantPaths > maxPaths {
			*capped++
		}
		if gotPaths != wantPaths {
			t.Errorf("%s: %d paths, reference %d", what, gotPaths, wantPaths)
		}
		if !slices.Equal(got.Forbidden, want.Forbidden) {
			t.Errorf("%s: forbids %v, reference %v", what, got.Forbidden, want.Forbidden)
		}
	}
	for _, inst := range pl.IR.Instances {
		ex := newSymbex(pl.IR, inst, controlledSet(inst), inst.Apply)
		ex.run(inst.Apply)
		ref := refSymbex{newSymbex(pl.IR, inst, controlledSet(inst), inst.Apply)}
		ref.run(inst.Apply, ref.f.True(), nil)
		var controlled []*smt.Term
		for _, pc := range ref.bugPCs {
			if ref.isControlled(pc) {
				controlled = append(controlled, pc)
			}
		}
		if !slices.Equal(ex.bugPCs, controlled) {
			t.Errorf("%s: controlled bug paths %v, reference %v", inst.Name(), ex.bugPCs, controlled)
		}
		want, wantPaths := refFastInfer(pl, inst)
		same(inst.Name(), FastInfer(pl, inst), want, ex.paths, wantPaths)
	}
	topo := pl.IR.Topo()
	for _, t2 := range pl.IR.Instances {
		for _, t1 := range pl.IR.Instances {
			if t1 == t2 || !pl.Doms.Dominates(t1.Apply, t2.Apply) || !keysSubset(t1.Table, t2.Table) {
				continue
			}
			got, gotPaths := fastInferLinked(pl, topo, t1, t2)
			want, wantPaths := refFastInferLinked(pl, t1, t2)
			same(t1.Name()+" → "+t2.Name(), got, want, gotPaths, wantPaths)
		}
	}
}
