package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// tinySizes runs every workload in well under a second each, on the
// simple_nat spec, with operation caps (not the clock) ending the timed
// region so that counts repeat exactly.
var tinySizes = map[string]sizes{
	"verify-switch":    {verifyProg: "simple_nat", warmProg: "arp", maxOps: 1},
	"verify-corpus":    {corpus: []string{"arp", "simple_nat", "mplb_router-ppc"}, maxOps: 2},
	"shim-validate":    {specProg: "simple_nat", session: 200, maxOps: 3},
	"shim-wire-insert": {specProg: "simple_nat", batch: 1, round: 100, compact: 32, maxOps: 2},
	"shim-wire-batch":  {specProg: "simple_nat", batch: 8, round: 10, compact: 4, maxOps: 2},
}

func tinyRun(t *testing.T, decl *benchDecl, workload string, trace bool) *resultLine {
	t.Helper()
	p := params{workload: workload, seed: 1, seconds: 60, trace: trace, workers: 1, outDir: t.TempDir(), size: tinySizes[workload]}
	m, err := runWorkload(p)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	line, err := decl.result(p, m)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !line.Correct || line.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, line.Failed, line.Attempted, m.failures)
	}
	return line
}

func names(metrics map[string]metricValue) string {
	var out []string
	for n := range metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func declared(set []metricDecl) string {
	m := map[string]metricValue{}
	for _, md := range set {
		m[md.Name] = metricValue{}
	}
	return names(m)
}

// TestWorkloadsEmitDeclaredMetrics runs every declared workload traced
// (twice) and untraced and checks that each mode emits exactly the names
// BENCHMARK.json declares for it, that every end-to-end metric is
// non-zero, and that the deterministic counts repeat exactly and are not
// zero (checkpoints among them: both wire workloads must take some).
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	_, decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(tinySizes) || len(decl.Workloads) != len(fullSizes) {
		t.Fatalf("BENCHMARK.json declares %v; sizes exist for %d (full) and %d (tiny) workloads", decl.workloadNames(), len(fullSizes), len(tinySizes))
	}
	exact := map[string][]string{
		"verify-switch":    {"sat.conflicts", "sat.decisions", "solver.checks", "core.checks", "core.reachable", "fixes.keys_added", "ir.nodes"},
		"verify-corpus":    {"sat.conflicts", "sat.decisions", "solver.checks", "core.checks", "core.reachable", "fixes.keys_added", "ir.nodes"},
		"shim-validate":    {"shim.accepted", "shim.rejected", "shim.evals_per_update", "shim.shadow_entries_end"},
		"shim-wire-insert": {"shim.accepted", "shim.rejected", "journal.records", "journal.bytes_per_update", "p4runtime.frame_bytes", "recovery.replayed_records", "checkpoint.count", "checkpoint.snapshot_bytes"},
		"shim-wire-batch":  {"shim.accepted", "journal.records", "journal.bytes_per_update", "p4runtime.frame_bytes", "recovery.replayed_records", "checkpoint.count", "checkpoint.snapshot_bytes"},
	}
	for _, w := range decl.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			e2e := tinyRun(t, decl, w.Name, false)
			if got, want := names(e2e.Metrics), declared(decl.EndToEnd); got != want {
				t.Errorf("untraced run emitted\n %s\nBENCHMARK.json declares\n %s", got, want)
			}
			for name, v := range e2e.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", name, v.Value)
				}
			}
			first, second := tinyRun(t, decl, w.Name, true), tinyRun(t, decl, w.Name, true)
			if got, want := names(first.Metrics), declared(decl.PerLayer); got != want {
				t.Errorf("traced run emitted\n %s\nBENCHMARK.json declares\n %s", got, want)
			}
			for _, name := range exact[w.Name] {
				a, b := first.Metrics[name].Value, second.Metrics[name].Value
				if a != b || a == 0 {
					t.Errorf("%s: %v then %v, want equal and non-zero", name, a, b)
				}
			}
			if first.Attempted != second.Attempted {
				t.Errorf("attempted %d then %d", first.Attempted, second.Attempted)
			}
		})
	}
}

// TestMismatchIsAFailedOperation: a wrong verdict becomes a failed
// operation and an incorrect result line, not a panic or a harness error.
func TestMismatchIsAFailedOperation(t *testing.T) {
	pg, err := loadProgram("simple_nat")
	if err != nil {
		t.Fatal(err)
	}
	m := newMeter()
	verifyOne(pg, verifyConfig(1), map[string]row{"simple_nat": {6, 2, 0, 2}}, m, nil, 0, nil)
	if m.attempted != 1 || m.failed != 1 || len(m.failures) != 1 {
		t.Fatalf("attempted=%d failed=%d failures=%v, want one failed operation", m.attempted, m.failed, m.failures)
	}
}

func TestCompareVerdicts(t *testing.T) {
	decl := &benchDecl{
		Workloads: []workloadDecl{{Name: "w"}},
		EndToEnd: []metricDecl{
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "noisy", Unit: "ms", Better: "lower", Bound: 0.10},
		},
	}
	runs := func(lat, rate, noisy [2]float64) map[string][]runRecord {
		var out []runRecord
		for i := 0; i < 2; i++ {
			out = append(out, runRecord{Workload: "w", resultLine: resultLine{Correct: true, Metrics: map[string]metricValue{
				"lat": {Value: lat[i]}, "rate": {Value: rate[i]}, "noisy": {Value: noisy[i]}}}})
		}
		return map[string][]runRecord{"w": out}
	}
	a := runs([2]float64{100, 102}, [2]float64{1000, 1010}, [2]float64{10, 13})
	b := runs([2]float64{120, 121}, [2]float64{990, 1000}, [2]float64{11, 12})
	var out bytes.Buffer
	if code := compareRuns(decl, a, b, &out); code != 1 {
		t.Errorf("exit code %d, want 1 for a regression\n%s", code, out.String())
	}
	for metric, verdict := range map[string]string{"lat": "REGRESSION", "rate": "ok", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 1 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("metric %s: want verdict %s\n%s", metric, verdict, out.String())
		}
	}
}

// TestCompareMissingWorkload: a declared workload with runs on one side
// only (the other crashed before writing its record) is a MISSING row and
// a failing exit code, not a silently shorter table.
func TestCompareMissingWorkload(t *testing.T) {
	decl := &benchDecl{
		Workloads: []workloadDecl{{Name: "w"}, {Name: "never-run"}},
		EndToEnd:  []metricDecl{{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	run := runRecord{Workload: "w", resultLine: resultLine{Correct: true, Metrics: map[string]metricValue{"lat": {Value: 1}}}}
	var out bytes.Buffer
	if code := compareRuns(decl, map[string][]runRecord{"w": {run}}, map[string][]runRecord{}, &out); code != 1 {
		t.Errorf("exit code %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "MISSING") || strings.Contains(out.String(), "never-run") {
		t.Errorf("want one MISSING row, for w only\n%s", out.String())
	}
}
