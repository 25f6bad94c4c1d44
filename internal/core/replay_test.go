package core

import (
	"strings"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/smt"
)

// TestCorpusWitnessReplay replays every reachable bug's solver model
// through the operational interpreter, across the whole corpus: each
// witness (packet input + table entries from the Model) must drive the
// dataplane to exactly the bug node the solver claimed, and the rendered
// trace must name the bug. This is the end-to-end soundness check tying
// the symbolic pipeline (WP + bit-blasting + SAT) to the operational
// semantics — a divergence means one of the two is wrong about the
// program. Where there are more than checksPerShard of them the bugs are
// dealt to two solver shards, so the witnesses come from both: a bug's model
// is whatever the shard that decided it found, and each has to replay.
func TestCorpusWitnessReplay(t *testing.T) {
	for _, p := range progs.All() {
		name, src := p.Name, p.Source
		if p.Name == "switch" {
			if testing.Short() {
				continue
			}
			// The generated switch at a reduced scale keeps the test fast
			// while covering the largest, most table-dense program.
			name, src = "switch@4", progs.GenerateSwitch(4)
		}
		t.Run(name, func(t *testing.T) {
			pl, err := Compile(src, ir.DefaultOptions(), true)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep := pl.FindBugsWith(FindOptions{Workers: 2})
			replayed := 0
			for _, b := range rep.Bugs {
				if !b.Reachable {
					continue
				}
				tr, err := pl.Counterexample(b)
				if err != nil {
					t.Errorf("replay diverged for %s: %v", b.Description(), err)
					continue
				}
				if tr.Terminal != b.Node {
					t.Errorf("replay of %s terminated at n%d, want n%d",
						b.Description(), tr.Terminal.ID, b.Node.ID)
					continue
				}
				out := pl.RenderTrace(b, tr)
				if !strings.Contains(out, "** BUG") {
					t.Errorf("rendered trace for %s does not report the bug:\n%s", b.Description(), out)
				}
				replayed++
			}
			if rep.NumReachable() == 0 {
				t.Fatalf("%s: no reachable bugs to replay (corpus regression)", name)
			}
			t.Logf("%s: replayed %d/%d witnesses", name, replayed, rep.NumReachable())
		})
	}
}

// TestEverySatModelEvaluates pins the convention a maintained witness leans
// on: the environment a Sat answer of checkNodes comes with makes the bug's
// condition as written — pl.Reach.Cond, not the form the shard's rewrite pass
// blasted — evaluate true under smt.EvalBool, a variable the rewrite erased
// reading zero. The evaluator shares no code with bit-blasting or the CDCL
// core, so each model checked here is also independent evidence for a
// "reachable" verdict.
func TestEverySatModelEvaluates(t *testing.T) {
	for _, p := range progs.All() {
		name, src := p.Name, p.Source
		if p.Name == "switch" {
			if testing.Short() {
				continue
			}
			name, src = "switch@1", progs.GenerateSwitch(1)
		}
		t.Run(name, func(t *testing.T) {
			pl, err := Compile(src, ir.DefaultOptions(), true)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var nodes []*ir.Node
			for _, bn := range pl.IR.Bugs {
				if pl.Reach.Cond[bn] != nil {
					nodes = append(nodes, bn)
				}
			}
			checks, _ := pl.checkNodes(nodes, 2, nil, nil, "test")
			sat := 0
			for i, c := range checks {
				if !c.reachable {
					continue
				}
				sat++
				if !smt.EvalBool(pl.Reach.Cond[nodes[i]], c.model) {
					t.Errorf("n%d (%s): the Sat answer's model does not satisfy the condition as written", nodes[i].ID, nodes[i].Comment)
				}
			}
			if sat == 0 {
				t.Fatalf("%s: no Sat answer to evaluate (corpus regression)", name)
			}
		})
	}
}
