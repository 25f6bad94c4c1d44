// Command bf4-bench regenerates the paper's evaluation artifacts (the
// experiment index in DESIGN.md). Each experiment prints the rows/series
// the paper reports; EXPERIMENTS.md records paper-vs-measured values.
//
// Usage:
//
//	bf4-bench -run table1 [-switch-scale 16] [-j 4] [-stable]
//	bf4-bench -run slicing|infer|multitable|dontcare|p4v|vera|shim|overhead|stages
//	bf4-bench -run all
//
// Performance is measured by `go run ./bench`, not here; per-program
// solver counters come from `bf4 -metrics-json`.
//
// -j bounds the worker pool for experiments that run independent
// verifications (table1's corpus loop, each ablation's two arms);
// 0 means GOMAXPROCS, 1 reproduces the paper's serial timing
// methodology. All counts are identical for every -j. -stable renders
// table1 without its runtime column and drops each experiment's
// wall-clock footer, so outputs from different -j values (or machines)
// can be diffed byte-for-byte — CI does exactly that.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bf4/internal/experiments"
)

func main() {
	var (
		run         = flag.String("run", "all", "experiment: table1, slicing, infer, multitable, dontcare, p4v, vera, shim, overhead, stages, all")
		switchScale = flag.Int("switch-scale", 8, "generated switch scale for switch-based experiments")
		updates     = flag.Int("updates", 2000, "controller updates for the shim experiment")
		veraBudget  = flag.Int("vera-budget", 7500, "paths symbolic Vera explores (7500 take about 20 s at switch@8 on a 2-vCPU VM)")
		jobs        = flag.Int("j", 0, "worker pool size for parallel experiments (0 = GOMAXPROCS, 1 = serial)")
		stable      = flag.Bool("stable", false, "render table1 without the runtime column and omit the wall-clock footers (byte-stable across -j values and machines)")
	)
	flag.Parse()

	all := *run == "all"
	ok := false
	dispatch := func(name string, fn func() error) {
		if !all && *run != name {
			return
		}
		ok = true
		fmt.Printf("==> %s\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if !*stable {
			fmt.Printf("    (%s)\n", time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}

	dispatch("table1", func() error {
		rows, err := experiments.Table1(*switchScale, *jobs)
		if err != nil {
			return err
		}
		if *stable {
			fmt.Print(experiments.RenderTable1Stable(rows))
		} else {
			fmt.Print(experiments.RenderTable1(rows))
		}
		return nil
	})

	dispatch("slicing", func() error {
		r, err := experiments.Slicing(*switchScale, *jobs)
		if err != nil {
			return err
		}
		fmt.Printf("instructions: %d total, %d in slice (%.1f%%)\n",
			r.TotalInstructions, r.SliceInstructions,
			100*float64(r.SliceInstructions)/float64(r.TotalInstructions))
		fmt.Printf("model-check time: %s with slicing, %s without (%.2fx)\n",
			r.TimeWithSlicing.Round(time.Millisecond), r.TimeWithout.Round(time.Millisecond),
			float64(r.TimeWithout)/float64(r.TimeWithSlicing))
		fmt.Printf("formula DAG nodes: %d with slicing, %d without (%.2fx smaller)\n",
			r.FormulaWith, r.FormulaWithout, float64(r.FormulaWithout)/float64(r.FormulaWith))
		fmt.Printf("SAT propagations: %d with, %d without\n", r.PropagationsWith, r.PropagationsWithout)
		fmt.Printf("reachable bugs agree: %d vs %d\n", r.BugsWith, r.BugsWithout)
		return nil
	})

	dispatch("infer", func() error {
		r, err := experiments.InferAblation(*switchScale, *jobs)
		if err != nil {
			return err
		}
		fmt.Printf("total reachable bugs: %d\n", r.TotalBugs)
		fmt.Printf("Fast-Infer: controls %d in %s\n", r.FastInferControlled, r.FastInferTime.Round(time.Microsecond))
		fmt.Printf("Infer:      controls %d in %s (%d solver iterations)\n",
			r.InferControlled, r.InferTime.Round(time.Millisecond), r.InferIterations)
		fmt.Printf("speedup: %.0fx\n", float64(r.InferTime)/float64(max64(int64(r.FastInferTime), 1)))
		return nil
	})

	dispatch("multitable", func() error {
		r, err := experiments.MultiTable(*switchScale, *jobs)
		if err != nil {
			return err
		}
		fmt.Printf("controlled without multi-table: %d/%d; with: %d/%d (+%d)\n",
			r.Baseline, r.TotalBugs, r.WithHeuristic, r.TotalBugs, r.ExtraControlled)
		return nil
	})

	dispatch("dontcare", func() error {
		r, err := experiments.DontCare(*switchScale, *jobs)
		if err != nil {
			return err
		}
		fmt.Printf("controlled without dontCare: %d/%d; with: %d/%d (+%d)\n",
			r.Baseline, r.TotalBugs, r.WithHeuristic, r.TotalBugs, r.ExtraControlled)
		return nil
	})

	dispatch("p4v", func() error {
		r, err := experiments.P4V(*switchScale)
		if err != nil {
			return err
		}
		fmt.Printf("p4v-approx (single query): bug found=%v in %s — then a human writes annotations\n",
			r.P4VFoundBug, r.P4VTime.Round(time.Millisecond))
		fmt.Printf("bf4 (full loop): %d bugs -> %d after fixes, %d keys inferred automatically, in %s\n",
			r.BF4Bugs, r.BF4AfterFixes, r.BF4KeysInferred, r.BF4Time.Round(time.Millisecond))
		return nil
	})

	dispatch("vera", func() error {
		r, err := experiments.VeraCompare(*switchScale, *veraBudget)
		if err != nil {
			return err
		}
		fmt.Printf("concrete snapshot: %d paths, %d bugs, %s, coverage %.0f%% (completed=%v)\n",
			r.ConcretePaths, r.ConcreteBugs, r.ConcreteTime.Round(time.Millisecond),
			100*r.ConcreteCoverage, r.ConcreteComplete)
		fmt.Printf("symbolic entries:  %d paths, %d bugs, %s, coverage %.0f%% (completed=%v)\n",
			r.SymbolicPaths, r.SymbolicBugs, r.SymbolicTime.Round(time.Millisecond),
			100*r.SymbolicCoverage, r.SymbolicComplete)
		return nil
	})

	dispatch("shim", func() error {
		r, err := experiments.Shim(*switchScale, *updates)
		if err != nil {
			return err
		}
		fmt.Printf("%d updates against %d assertions over %d tables (%d rejected)\n",
			r.Updates, r.Assertions, r.TablesCovered, r.Rejected)
		fmt.Printf("per-assertion: p50=%s p90=%s p99=%s max=%s\n",
			r.PerAssertion.P50, r.PerAssertion.P90, r.PerAssertion.P99, r.PerAssertion.Max)
		fmt.Printf("per-update:    p50=%s p90=%s p99=%s max=%s\n",
			r.PerUpdate.P50, r.PerUpdate.P90, r.PerUpdate.P99, r.PerUpdate.Max)
		return nil
	})

	dispatch("overhead", func() error {
		r, err := experiments.KeyOverhead(*switchScale)
		if err != nil {
			return err
		}
		fmt.Printf("keys: %d existing, %d added (%.1f%%)\n", r.KeysBefore, r.KeysAdded, r.KeyPercent)
		fmt.Printf("match bits added: %d (%.2f bits/table avg)\n", r.BitsAdded, r.BitsPerTable)
		fmt.Printf("tables touched: %d of %d (%.1f%%)\n", r.TablesTouched, r.TablesTotal, r.TablePercent)
		return nil
	})

	dispatch("stages", func() error {
		r, err := experiments.Stages("simple_nat")
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d stages original; %d with inline guards (%.1fx); %d with bf4 key fixes\n",
			r.Program, r.Original, r.WithGuards,
			float64(r.WithGuards)/float64(r.Original), r.WithKeys)
		return nil
	})

	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
