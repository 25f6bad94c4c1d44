package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTable1WithoutSwitch(t *testing.T) {
	rows, err := Table1(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24 (switch skipped)", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Program] = r
		if r.Bugs < r.BugsAfterInfer || r.BugsAfterInfer < r.BugsAfterFixes {
			t.Errorf("%s: bug counts not monotone: %d -> %d -> %d",
				r.Program, r.Bugs, r.BugsAfterInfer, r.BugsAfterFixes)
		}
	}
	// The paper's signature rows.
	if r := byName["arp"]; r.BugsAfterInfer != 0 || r.KeysAdded != 0 {
		t.Errorf("arp row: %+v", r)
	}
	if r := byName["simple_nat"]; r.KeysAdded != 1 || r.BugsAfterFixes != 0 {
		t.Errorf("simple_nat row: %+v", r)
	}
	if r := byName["mplb_router-ppc"]; r.BugsAfterFixes != 1 {
		t.Errorf("mplb row: %+v", r)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "simple_nat") || !strings.Contains(out, "after-Infer") {
		t.Fatalf("render:\n%s", out)
	}
	stable := RenderTable1Stable(rows)
	if !strings.Contains(stable, "simple_nat") || strings.Contains(stable, "runtime") {
		t.Fatalf("stable render must drop the runtime column:\n%s", stable)
	}
}

// TestTable1DeterministicAcrossWorkerCounts is the corpus-level half of
// the parallel-engine guarantee (the per-instance half lives in
// internal/infer): the stable rendering of Table 1 is byte-identical
// for serial and parallel corpus runs. CI re-checks this through the
// bf4-bench binary (-j 1 vs -j 2, -stable).
func TestTable1DeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: two full corpus runs")
	}
	render := func(workers int) string {
		rows, err := Table1(0, workers)
		if err != nil {
			t.Fatal(err)
		}
		return RenderTable1Stable(rows)
	}
	serial := render(1)
	if got := render(2); got != serial {
		t.Errorf("workers=2 table differs from workers=1:\n--- j1:\n%s--- j2:\n%s", serial, got)
	}
}

func TestStagesExperiment(t *testing.T) {
	r, err := Stages("simple_nat")
	if err != nil {
		t.Fatal(err)
	}
	if r.WithGuards <= r.Original {
		t.Fatalf("guards must cost stages: %+v", r)
	}
	if r.WithKeys != r.Original {
		t.Fatalf("key fixes must be stage-neutral: %+v", r)
	}
	if _, err := Stages("not_a_program"); err == nil {
		t.Fatal("unknown program accepted")
	}
}

// TestSlicingAgreesOnVerdicts runs the two arms on two workers: they decide
// one compile's bugs on one term factory at once, the case -race watches.
func TestSlicingAgreesOnVerdicts(t *testing.T) {
	r, err := Slicing(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.BugsWith != r.BugsWithout {
		t.Fatalf("slicing changed verdicts: %d vs %d", r.BugsWith, r.BugsWithout)
	}
	if r.SliceInstructions >= r.TotalInstructions {
		t.Fatalf("slice did not shrink instructions: %d/%d",
			r.SliceInstructions, r.TotalInstructions)
	}
	if r.FormulaWith > r.FormulaWithout {
		t.Fatalf("sliced formulas larger than full: %d vs %d",
			r.FormulaWith, r.FormulaWithout)
	}
}

func TestPercentiles(t *testing.T) {
	ns := []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	p := percentilesOf(ns)
	if p.P50 != 5 && p.P50 != 6 {
		t.Fatalf("p50 = %v", p.P50)
	}
	if p.Max != 10 {
		t.Fatalf("max = %v", p.Max)
	}
	if p.P90 < p.P50 || p.P99 < p.P90 || p.Max < p.P99 {
		t.Fatalf("percentiles not monotone: %+v", p)
	}
	if got := percentilesOf(nil); got.Max != 0 {
		t.Fatalf("empty percentiles: %+v", got)
	}
}

func TestShimExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: full loop + 100 updates")
	}
	r, err := Shim(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Updates != 100 {
		t.Fatalf("updates = %d", r.Updates)
	}
	if r.Assertions == 0 {
		t.Fatal("no assertions inferred for switch@1")
	}
	// The paper's headline: per-update validation far below snapshot
	// verification. Even generously, p90 must be far under a millisecond
	// in-process.
	if r.PerUpdate.P90 > 100*time.Millisecond {
		t.Fatalf("per-update p90 = %v", r.PerUpdate.P90)
	}
	if r.Rejected == 0 {
		t.Fatal("workload rejected nothing; faulty fraction not exercised")
	}
}

func TestVeraCompareSmall(t *testing.T) {
	r, err := VeraCompare(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.SymbolicPaths == 0 || r.ConcretePaths == 0 {
		t.Fatalf("no exploration: %+v", r)
	}
	if r.SymbolicCoverage <= 0 || r.SymbolicCoverage > 1 {
		t.Fatalf("coverage = %v", r.SymbolicCoverage)
	}
}

func TestP4VSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: full bf4 loop")
	}
	r, err := P4V(1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.P4VFoundBug {
		t.Fatal("p4v query found no bug in switch@1")
	}
	if r.BF4AfterFixes != 0 {
		t.Fatalf("bf4 left %d bugs", r.BF4AfterFixes)
	}
	if r.P4VTime >= r.BF4Time {
		t.Fatalf("single query (%v) should be cheaper than the full loop (%v)",
			r.P4VTime, r.BF4Time)
	}
}

func TestKeyOverheadSmall(t *testing.T) {
	r, err := KeyOverhead(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.KeysAdded == 0 || r.BitsAdded == 0 {
		t.Fatalf("no fixes measured: %+v", r)
	}
	// The paper's structural claim: added keys are (almost all) validity
	// bits — about one bit each.
	if float64(r.BitsAdded)/float64(r.KeysAdded) > 2 {
		t.Fatalf("added keys average %.1f bits; expected ~1 (validity checks)",
			float64(r.BitsAdded)/float64(r.KeysAdded))
	}
}
