package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
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
					c, _ := spanMetric(sp, "candidates")
					w, ok := spanMetric(sp, "witnessed")
					r, _ := spanMetric(sp, "reachable")
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
			if pairs, yielding := reg.CounterValue("bf4_infer_multitable_pairs_total"), reg.CounterValue("bf4_infer_multitable_pairs_yielding_total"); yielding > pairs {
				t.Errorf("multi-table counters: %d pairs, %d yielding", pairs, yielding)
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

// spanMetric reads the annotation SetMetric attached to sp under key off
// sp's rendered line, and whether there is one.
func spanMetric(sp *obs.Span, key string) (int64, bool) {
	line, _, _ := strings.Cut(sp.RenderString(), "\n")
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// TestMetricsRepeat: three runs of switch@2 at two workers give the same
// counters, gauges and histograms, timings (names with _ns) aside. A
// metric that holds whichever worker finished last measures the schedule,
// not the program, and cannot be compared between runs or commits. The
// solver pool's own metrics are such measures: whether a worker finds an
// idle solver, and how large the arrays of the one it finds are, depend on
// when the other worker hands one back. Only the solvers taken from the
// pool, found or made, are the program's.
func TestMetricsRepeat(t *testing.T) {
	src := progs.GenerateSwitch(2)
	var first map[string]string
	for i := 1; i <= 3; i++ {
		cfg := DefaultConfig()
		cfg.Workers = 2
		cfg.Obs = obs.NewRegistry()
		if _, err := Run("switch@2", src, cfg); err != nil {
			t.Fatal(err)
		}
		got := repeatableMetrics(t, cfg.Obs)
		if i == 1 {
			first = got
			continue
		}
		var diffs []string
		for name, v := range got {
			if first[name] != v {
				diffs = append(diffs, fmt.Sprintf("%s: %s in run 1, %s in run %d", name, first[name], v, i))
			}
		}
		for name, v := range first {
			if _, ok := got[name]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s: %s in run 1, absent in run %d", name, v, i))
			}
		}
		if len(diffs) > 0 {
			sort.Strings(diffs)
			t.Fatalf("metrics differ between runs of one program:\n%s", strings.Join(diffs, "\n"))
		}
	}
}

// repeatableMetrics returns reg's counters, gauges and histograms by name,
// without the ones whose name contains _ns and with the solver pool's
// three replaced by the number of solvers taken from it.
func repeatableMetrics(t *testing.T, reg *obs.Registry) map[string]string {
	t.Helper()
	data, err := reg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters, Gauges, Histograms map[string]json.RawMessage
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	pool := map[string]bool{"bf4_solver_fresh_total": true, "bf4_solver_recycled_total": true, "bf4_solver_pool_retained_bytes": true}
	out := map[string]string{
		"solvers taken from the pool": fmt.Sprint(reg.CounterValue("bf4_solver_fresh_total") + reg.CounterValue("bf4_solver_recycled_total")),
	}
	for _, m := range []map[string]json.RawMessage{doc.Counters, doc.Gauges, doc.Histograms} {
		for name, v := range m {
			if !strings.Contains(name, "_ns") && !pool[name] {
				out[name] = string(v)
			}
		}
	}
	return out
}
