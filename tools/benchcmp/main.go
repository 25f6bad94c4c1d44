// Command benchcmp compares the two BENCH_shimscale.json artifacts produced
// by `bf4-bench -run shimscale -fastpath both -json` — fast path ON first,
// OFF (the term-DAG reference tier) second:
//
//	benchcmp [-min-speedup 2.0] BENCH_shimscale.json BENCH_shimscale_off.json
//
// It fails if the two tiers disagree on any decision count (the fast
// path must never change verdicts), if the ON artifact took any
// slow-path evaluations the OFF artifact cannot account for, or if the
// fast path's update throughput is below -min-speedup times the slow
// path's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// shimscaleFile mirrors experiments.ShimScaleResult.
type shimscaleFile struct {
	Bench         string  `json:"bench"`
	Fastpath      bool    `json:"fastpath"`
	Scale         int     `json:"scale"`
	Updates       int64   `json:"updates"`
	Accepted      int64   `json:"accepted"`
	Rejected      int64   `json:"rejected"`
	FastHits      int64   `json:"fast_hits"`
	SlowHits      int64   `json:"slow_hits"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

func main() {
	minSpeedup := flag.Float64("min-speedup", 2.0, "fail if fast-path throughput is below this multiple of the slow path")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-min-speedup 2.0] on.json off.json")
		os.Exit(2)
	}
	compareShimscale(flag.Arg(0), flag.Arg(1), *minSpeedup)
}

// compareShimscale enforces the fast-path contract between a fastpath=on
// artifact and its fastpath=off twin: identical decisions, identical
// total assertion-evaluation counts, and a real speedup.
func compareShimscale(onPath, offPath string, minSpeedup float64) {
	loadScale := func(path string, wantFast bool) *shimscaleFile {
		data, err := os.ReadFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		var f shimscaleFile
		if err := json.Unmarshal(data, &f); err != nil {
			fatalf("%s: %v", path, err)
		}
		if f.Bench != "shimscale" {
			fatalf("%s: bench is %q, want shimscale", path, f.Bench)
		}
		if f.Fastpath != wantFast {
			fatalf("%s: fastpath=%v artifact in the %v position", path, f.Fastpath, wantFast)
		}
		return &f
	}
	on := loadScale(onPath, true)
	off := loadScale(offPath, false)

	fmt.Printf("%-10s %10s %10s %10s %12s %12s %14s\n",
		"fastpath", "updates", "accepted", "rejected", "fast-evals", "slow-evals", "updates/s")
	for _, f := range []*shimscaleFile{on, off} {
		fmt.Printf("%-10v %10d %10d %10d %12d %12d %14.0f\n",
			f.Fastpath, f.Updates, f.Accepted, f.Rejected, f.FastHits, f.SlowHits, f.UpdatesPerSec)
	}

	if on.Scale != off.Scale || on.Updates != off.Updates {
		fatalf("arms ran different workloads: scale %d/%d, updates %d/%d",
			on.Scale, off.Scale, on.Updates, off.Updates)
	}
	if on.Accepted != off.Accepted || on.Rejected != off.Rejected {
		fatalf("DECISION MISMATCH: on=%d/%d off=%d/%d accepted/rejected — the fast path changed verdicts",
			on.Accepted, on.Rejected, off.Accepted, off.Rejected)
	}
	if off.FastHits != 0 {
		fatalf("off artifact took the fast path %d times", off.FastHits)
	}
	if on.FastHits == 0 {
		fatalf("on artifact never took the fast path")
	}
	if got, want := on.FastHits+on.SlowHits, off.SlowHits; got != want {
		fatalf("evaluation counts differ: on=%d (fast+slow) off=%d — tiers did not judge the same assertions", got, want)
	}
	speedup := on.UpdatesPerSec / off.UpdatesPerSec
	fmt.Printf("\nspeedup: %.2fx (minimum %.2fx)\n", speedup, minSpeedup)
	if speedup < minSpeedup {
		fatalf("fast path speedup %.2fx below required %.2fx", speedup, minSpeedup)
	}
	fmt.Println("benchcmp: OK")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcmp: "+format+"\n", args...)
	os.Exit(1)
}
