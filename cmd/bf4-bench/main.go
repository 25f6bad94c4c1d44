// Command bf4-bench regenerates the paper's evaluation artifacts (the
// experiment index in DESIGN.md). Each experiment prints the rows/series
// the paper reports; EXPERIMENTS.md records paper-vs-measured values.
//
// Usage:
//
//	bf4-bench -run table1 [-switch-scale 16] [-j 4] [-stable] [-metrics] [-json]
//	bf4-bench -run shimfleet [-json]
//	bf4-bench -run shimscale [-fastpath on|off|both] [-updates N] [-decision-log path] [-json]
//	bf4-bench -run slicing|infer|multitable|dontcare|p4v|vera|shim|overhead|stages
//	bf4-bench -run all
//
// -json on table1 writes BENCH_table1.json: the verdict columns joined
// with deterministic per-program solver counters (CNF vars/clauses,
// conflicts, propagations, discharge counts — no wall-clock).
//
// -j bounds the worker pool for experiments that run independent
// verifications (table1's corpus loop, each ablation's two arms);
// 0 means GOMAXPROCS, 1 reproduces the paper's serial timing
// methodology. All counts are identical for every -j. -stable renders
// table1 without its runtime column so outputs from different -j values
// (or machines) can be diffed byte-for-byte — CI does exactly that.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bf4/internal/experiments"
)

func main() {
	var (
		run         = flag.String("run", "all", "experiment: table1, slicing, infer, multitable, dontcare, p4v, vera, shim, shimfleet, shimscale, overhead, stages, all")
		switchScale = flag.Int("switch-scale", 8, "generated switch scale for switch-based experiments")
		updates     = flag.Int("updates", 2000, "controller updates for the shim experiment (shimscale defaults to 1000000 unless set explicitly)")
		fastpath    = flag.String("fastpath", "on", "shimscale: bytecode fast path on|off|both (both replays each tier and reports the speedup)")
		decisionLog = flag.String("decision-log", "", "shimscale: write per-update decision logs to <path>.on / <path>.off for byte-diffing the tiers")
		veraBudget  = flag.Duration("vera-budget", 20*time.Second, "budget for symbolic Vera exploration")
		jobs        = flag.Int("j", 0, "worker pool size for parallel experiments (0 = GOMAXPROCS, 1 = serial)")
		stable      = flag.Bool("stable", false, "render table1 without the runtime column (byte-stable across -j values and machines)")
		jsonOut     = flag.Bool("json", false, "additionally write machine-readable results (table1: BENCH_table1.json; shimfleet: BENCH_shimfleet.json; shimscale: BENCH_shimscale.json)")
		metrics     = flag.Bool("metrics", false, "table1: append a per-program metrics table (deterministic solver/pipeline counters); the table1 section itself is unchanged")
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
		fmt.Printf("    (%s)\n\n", time.Since(start).Round(time.Millisecond))
	}

	dispatch("table1", func() error {
		var (
			rows []experiments.Table1Row
			ms   []experiments.Table1Metrics
			err  error
		)
		if *metrics || *jsonOut {
			rows, ms, err = experiments.Table1WithMetrics(*switchScale, *jobs)
		} else {
			rows, err = experiments.Table1(*switchScale, *jobs)
		}
		if err != nil {
			return err
		}
		if *stable {
			fmt.Print(experiments.RenderTable1Stable(rows))
		} else {
			fmt.Print(experiments.RenderTable1(rows))
		}
		if *metrics {
			fmt.Println("metrics:")
			fmt.Print(experiments.RenderTable1Metrics(ms))
		}
		if *jsonOut {
			data, err := experiments.Table1JSON(rows, ms)
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_table1.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("wrote BENCH_table1.json")
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

	dispatch("shimfleet", func() error {
		r, err := experiments.ShimFleet(*switchScale, *updates)
		if err != nil {
			return err
		}
		fmt.Printf("%d shards, %d updates/shard: %d applied, %d rejected, %d dedup hits\n",
			r.Shards, r.UpdatesPerShard, r.UpdatesApplied, r.UpdatesRejected, r.DedupHits)
		fmt.Printf("failover: %d restores, %d parked writes replayed, %d checkpoints, %d journal appends\n",
			r.Restores, r.ReplayedBatches, r.Checkpoints, r.JournalAppends)
		fmt.Printf("verify-once: %d compile for %d shards (%d cache hits)\n",
			r.AnnotationCompiles, r.Shards, r.AnnotationHits)
		if *jsonOut {
			data, err := experiments.ShimFleetJSON(r)
			if err != nil {
				return err
			}
			if err := os.WriteFile("BENCH_shimfleet.json", data, 0o644); err != nil {
				return err
			}
			fmt.Println("wrote BENCH_shimfleet.json")
		}
		return nil
	})

	dispatch("shimscale", func() error {
		// The headline run replays 1M updates; an explicit -updates (the
		// CI smoke job passes a reduced scale) overrides, and -run all
		// uses the shared -updates default.
		scaleUpdates := 1_000_000
		if all {
			scaleUpdates = *updates
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "updates" {
				scaleUpdates = *updates
			}
		})
		setup, err := experiments.NewShimScaleSetup(*switchScale, scaleUpdates)
		if err != nil {
			return err
		}
		arms := map[string][]bool{"on": {true}, "off": {false}, "both": {true, false}}[*fastpath]
		if arms == nil {
			return fmt.Errorf("-fastpath must be on, off or both, got %q", *fastpath)
		}
		var results []*experiments.ShimScaleResult
		for _, fp := range arms {
			var log io.Writer
			var logFile *os.File
			if *decisionLog != "" {
				suffix := map[bool]string{true: ".on", false: ".off"}[fp]
				logFile, err = os.Create(*decisionLog + suffix)
				if err != nil {
					return err
				}
				log = bufio.NewWriterSize(logFile, 1<<20)
			}
			r, err := setup.Run(scaleUpdates, fp, log)
			if err != nil {
				return err
			}
			if logFile != nil {
				if err := log.(*bufio.Writer).Flush(); err != nil {
					return err
				}
				if err := logFile.Close(); err != nil {
					return err
				}
			}
			results = append(results, r)
			fmt.Printf("fastpath=%-5v %d updates in %s: %.0f updates/s (%d accepted, %d rejected; %d fast / %d slow evals)\n",
				fp, r.Updates, time.Duration(r.ElapsedNs).Round(time.Millisecond),
				r.UpdatesPerSec, r.Accepted, r.Rejected, r.FastHits, r.SlowHits)
			if *jsonOut {
				name := "BENCH_shimscale.json"
				if !fp {
					name = "BENCH_shimscale_off.json"
				}
				data, err := experiments.ShimScaleJSON(r)
				if err != nil {
					return err
				}
				if err := os.WriteFile(name, data, 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", name)
			}
		}
		if len(results) == 2 {
			on, off := results[0], results[1]
			if on.Accepted != off.Accepted || on.Rejected != off.Rejected {
				return fmt.Errorf("tiers disagree: on=%d/%d off=%d/%d accepted/rejected",
					on.Accepted, on.Rejected, off.Accepted, off.Rejected)
			}
			fmt.Printf("speedup: %.1fx (identical decisions on both tiers)\n",
				on.UpdatesPerSec/off.UpdatesPerSec)
		}
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
