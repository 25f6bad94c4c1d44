package core

import (
	"strings"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/progs"
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
