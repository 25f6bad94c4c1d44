package driver

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bf4/internal/obs"
	"bf4/internal/progs"
)

// runWithObs runs the full loop and returns the result together with the
// marshaled spec file (annotations + schemas) — the externally visible
// artifact the shim consumes.
func runWithObs(t *testing.T, name, src string, reg *obs.Registry, tr *obs.Span) (*Result, []byte) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Obs = reg
	cfg.Trace = tr
	res, err := Run(name, src, cfg)
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	file := res.Spec()
	data, err := file.Marshal()
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	return res, data
}

// TestObservabilityPreservesVerdicts is the observability contract: with
// a registry and trace attached, every externally visible artifact —
// bug counts, inferred annotations, fixed source, the marshaled spec —
// is byte-identical to a plain run. Instrumentation only reads clocks
// and bumps counters; it must never perturb solver state or iteration
// order. That includes the slowest-checks table, which is collected only
// on the observed side.
func TestObservabilityPreservesVerdicts(t *testing.T) {
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := p.Source
			if p.Name == "switch" {
				if testing.Short() {
					t.Skip("verifies a generated switch twice; skipped in -short")
				}
				src = progs.GenerateSwitch(1)
			}
			plain, plainSpec := runWithObs(t, p.Name, src, nil, nil)

			reg := obs.NewRegistry()
			root := obs.StartSpan(p.Name)
			observed, obsSpec := runWithObs(t, p.Name, src, reg, root)
			root.End()

			if plain.Bugs != observed.Bugs ||
				plain.BugsAfterInfer != observed.BugsAfterInfer ||
				plain.BugsAfterFixes != observed.BugsAfterFixes ||
				plain.KeysAdded != observed.KeysAdded ||
				plain.TablesTouched != observed.TablesTouched ||
				plain.Rounds != observed.Rounds {
				t.Errorf("verdicts differ with obs on:\nplain    %s\nobserved %s",
					plain.Summary(), observed.Summary())
			}
			if plain.FixedSource != observed.FixedSource {
				t.Error("fixed source differs with obs on")
			}
			if !bytes.Equal(plainSpec, obsSpec) {
				t.Error("marshaled spec differs with obs on")
			}

			// And the run must actually have been observed.
			if reg.CounterValue("bf4_solver_checks_total") == 0 {
				t.Error("no solver checks recorded")
			}
			// Every run has cold starts — each shard's and each base's first
			// check — and the registry counts them and their conflicts apart.
			if first, checks := reg.CounterValue("bf4_solver_first_checks_total"), reg.CounterValue("bf4_solver_checks_total"); first == 0 || first > checks {
				t.Errorf("%d first checks of %d checks", first, checks)
			}
			if cold, all := reg.CounterValue("bf4_solver_first_check_conflicts_total"), reg.CounterValue("bf4_solver_conflicts_total"); cold > all {
				t.Errorf("%d conflicts in first checks, %d in all", cold, all)
			}
			if reg.CounterValue("bf4_phase_findbugs_ns_total") == 0 {
				t.Error("no findbugs phase time recorded")
			}
			if len(root.Children()) == 0 {
				t.Error("trace tree is empty")
			}
			if root.Duration() <= 0 {
				t.Error("root span has no duration")
			}
			// Every recheck says how many of its candidates a witness answered,
			// and the registry's two counters split the same candidates.
			var candidates, witnessed int64
			var walk func(*obs.Span)
			walk = func(sp *obs.Span) {
				if sp.Name() == "recheck" {
					c, _ := sp.Metric("candidates")
					w, ok := sp.Metric("witnessed")
					r, _ := sp.Metric("reachable")
					if !ok || w > r || r > c {
						t.Errorf("recheck span: %d candidates, %d witnessed (recorded: %v), %d reachable", c, w, ok, r)
					}
					candidates, witnessed = candidates+c, witnessed+w
				}
				for _, c := range sp.Children() {
					walk(c)
				}
			}
			walk(root)
			if got := reg.CounterValue("bf4_infer_recheck_witnessed_total"); got != witnessed {
				t.Errorf("bf4_infer_recheck_witnessed_total = %d, the recheck spans say %d", got, witnessed)
			}
			if got := reg.CounterValue("bf4_infer_recheck_solved_total"); got != candidates-witnessed {
				t.Errorf("bf4_infer_recheck_solved_total = %d, the recheck spans say %d of %d candidates", got, candidates-witnessed, candidates)
			}
			if candidates == 0 {
				t.Error("no recheck span recorded a candidate")
			}
			if pairs, yielding := reg.CounterValue("bf4_infer_multitable_pairs_total"), reg.CounterValue("bf4_infer_multitable_pairs_yielding_total"); yielding > pairs ||
				(pairs > 0 && reg.CounterValue("bf4_infer_multitable_paths_total") < pairs) {
				t.Errorf("multi-table counters: %d pairs, %d yielding, %d paths", pairs, yielding, reg.CounterValue("bf4_infer_multitable_paths_total"))
			}
			// The slowest-checks table names where each of its checks came
			// from: bug checks and rechecks carry their bug node, Infer's
			// solvers do not decide a single node.
			slowest := reg.SlowestChecks()
			if len(slowest) == 0 {
				t.Fatal("no check in the slowest-checks table")
			}
			for i, c := range slowest {
				if i > 0 && c.Ns > slowest[i-1].Ns {
					t.Errorf("slowest checks out of order: %d ns after %d ns", c.Ns, slowest[i-1].Ns)
				}
				switch c.Phase {
				case "findbugs", "recheck":
					if c.Node < 0 || !strings.HasPrefix(c.Solver, "shard ") {
						t.Errorf("%s check names solver %q, node %d: want a shard and a bug node", c.Phase, c.Solver, c.Node)
					}
				case "inferbase", "infer":
					if c.Node != -1 || c.Solver == "" {
						t.Errorf("%s check names solver %q, node %d: want a solver name and no node", c.Phase, c.Solver, c.Node)
					}
				default:
					t.Errorf("check from unknown phase %q", c.Phase)
				}
				if c.CNFVars == 0 || c.CNFClauses == 0 || c.Ns <= 0 {
					t.Errorf("check without size or time: %+v", c)
				}
			}
		})
	}
}

// TestRunOwnsItsSolvers: a run's recycled solver memory is its own. The
// same programs verified with 1, 2 and 4 workers, and twice at the same
// time on two goroutines (each Run with its own pool; run under -race),
// give the verdicts, fixed source and annotation file of the first run,
// and the registry says the rebuild round was served from what round 0
// put back.
func TestRunOwnsItsSolvers(t *testing.T) {
	for _, name := range []string{"simple_nat", "heavy_hitter_2", "netchain_16"} {
		t.Run(name, func(t *testing.T) {
			src := progs.Get(name).Source
			render := func(workers int, reg *obs.Registry) string {
				cfg := DefaultConfig()
				cfg.Workers, cfg.Obs = workers, reg
				res, err := Run(name, src, cfg)
				if err != nil {
					t.Error(err)
					return ""
				}
				data, err := res.Spec().Marshal()
				if err != nil {
					t.Error(err)
				}
				return fmt.Sprintf("bugs=%d afterInfer=%d afterFixes=%d keys=%d rounds=%d\n%s\n%s",
					res.Bugs, res.BugsAfterInfer, res.BugsAfterFixes, res.KeysAdded, res.Rounds, res.FixedSource, data)
			}
			reg := obs.NewRegistry()
			want := render(1, reg)
			if !strings.Contains(want, "rounds=1") {
				t.Fatalf("no rebuild round: nothing is recycled across rounds\n%s", want)
			}
			fresh, recycled := reg.CounterValue("bf4_solver_fresh_total"), reg.CounterValue("bf4_solver_recycled_total")
			if fresh == 0 || fresh > 7 || recycled == 0 {
				t.Errorf("one worker allocated %d solvers and recycled %d: a shard and two bases serve both rounds, two forks every instance of a round", fresh, recycled)
			}
			var wg sync.WaitGroup
			for _, workers := range []int{2, 4, 2, 4} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := render(workers, nil); got != want {
						t.Errorf("workers=%d, beside another run: output differs from workers=1 alone:\n--- j1:\n%s--- j%d:\n%s", workers, want, workers, got)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestColdChecksStayCheap pins what a cold start costs on switch@1: the
// first check of each bug-check shard and of each Infer base, rounds 0 and 1
// together. A fresh solver's saved phases are the circuit at the all-zeros
// input (bitblast.freshGate), so its first descent contradicts only what was
// asserted; with every gate starting true instead (the parent of the change
// that introduced this test) the same eight checks took 713 conflicts of the
// run's 2 756, against 158 of 765. The counts repeat exactly at a fixed
// worker count; the ceilings leave room for an unrelated change to the
// program or the encoding, not for a gate emitter with a constant phase.
func TestColdChecksStayCheap(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Obs = reg
	if _, err := Run("switch", progs.GenerateSwitch(1), cfg); err != nil {
		t.Fatalf("driver: %v", err)
	}
	if got := reg.CounterValue("bf4_solver_first_checks_total"); got != 8 {
		t.Errorf("%d first checks, want 8: two shards and two bases in each of two rounds", got)
	}
	if got := reg.CounterValue("bf4_solver_first_check_conflicts_total"); got > 250 {
		t.Errorf("the run's cold starts took %d conflicts, want at most 250 (158 when pinned, 713 with constant gate phases)", got)
	}
	if got := reg.CounterValue("bf4_solver_conflicts_total"); got > 1100 {
		t.Errorf("the run took %d conflicts, want at most 1100 (765 when pinned, 2756 with constant gate phases)", got)
	}
}
