package analysis_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bf4/internal/driver"
	"bf4/internal/obs"
	"bf4/internal/progs"
)

// taintFixtures returns the sources the taint goldens cover: the whole
// lint corpus, one leaky and one clean generated taint switch, and
// testdata/masked_shift.p4, whose sinks are clean only if the transfer
// drops taint where a constant mask fixes the bits.
func taintFixtures(t *testing.T) map[string]string {
	masked, err := os.ReadFile(filepath.Join("testdata", "masked_shift.p4"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{"masked_shift": string(masked)}
	for _, p := range progs.All() {
		src := p.Source
		if p.Name == "switch" {
			src = progs.GenerateSwitch(4)
		}
		out[p.Name] = src
	}
	out["taintswitch-leaky@4"] = progs.GenerateTaintSwitch(4, 1, true)
	out["taintswitch-clean@4"] = progs.GenerateTaintSwitch(4, 1, false)
	return out
}

// TestTaintGolden locks the exact `bf4 lint -taint` output — verdicts,
// witness paths, positions, summary line — for every corpus program and
// both generated taint families. Run with -update to accept intended
// changes.
func TestTaintGolden(t *testing.T) {
	for name, src := range taintFixtures(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			file := name + ".p4"
			rep, err := driver.Taint(file, src, driver.DefaultTaintConfig())
			if err != nil {
				t.Fatalf("taint: %v", err)
			}
			got := rep.Report().RenderText(file)

			golden := filepath.Join("testdata", name+".taint.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("taint output drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestTaintFamilies pins the semantic contract of the generated
// families across several seeds: every leaky variant has solver-
// confirmed leaks with witness paths plus at least one dataflow alarm
// the solver dismisses as infeasible; every clean variant is silent.
func TestTaintFamilies(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("leaky/seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := progs.GenerateTaintSwitch(4, seed, true)
			rep, err := driver.Taint("leaky.p4", src, driver.DefaultTaintConfig())
			if err != nil {
				t.Fatalf("taint: %v", err)
			}
			if rep.Confirmed == 0 {
				t.Errorf("leaky variant seed %d: no confirmed leaks", seed)
			}
			if rep.Dismissed == 0 {
				t.Errorf("leaky variant seed %d: expected the infeasible two-branch gadget to be dismissed", seed)
			}
			for _, d := range rep.Diags {
				if strings.HasPrefix(d.Msg, "confirmed leak") && d.Witness == "" {
					t.Errorf("confirmed leak without a witness path: %s", d.Msg)
				}
			}
		})
		t.Run(fmt.Sprintf("clean/seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := progs.GenerateTaintSwitch(4, seed, false)
			for _, policy := range []string{"default", "annot"} {
				cfg := driver.DefaultTaintConfig()
				cfg.Policy = policy
				rep, err := driver.Taint("clean.p4", src, cfg)
				if err != nil {
					t.Fatalf("taint (policy %s): %v", policy, err)
				}
				if rep.Alarms != 0 {
					t.Errorf("clean variant seed %d policy %s: %d alarm(s), want 0", seed, policy, rep.Alarms)
				}
				if rep.StaticallyClean == 0 {
					t.Errorf("clean variant seed %d policy %s: no sinks discharged statically", seed, policy)
				}
			}
		})
	}
}

// TestTaintDeterminism: solver confirmation fans out across workers, but
// rendered output must stay byte-identical for every worker count, and
// every worker's solver must report to the registry: the solver-query
// count is the same (and not zero) whether one solver or four shared the
// work.
func TestTaintDeterminism(t *testing.T) {
	src := progs.GenerateTaintSwitch(4, 1, true)
	var baseText, baseJSON string
	var baseChecks int64
	for i, workers := range []int{1, 4} {
		cfg := driver.DefaultTaintConfig()
		cfg.Workers, cfg.Obs = workers, obs.NewRegistry()
		rep, err := driver.Taint("leaky.p4", src, cfg)
		if err != nil {
			t.Fatalf("taint (workers=%d): %v", workers, err)
		}
		text := rep.Report().RenderText("leaky.p4")
		js, err := rep.Report().RenderJSON("leaky.p4")
		if err != nil {
			t.Fatalf("json: %v", err)
		}
		checks := cfg.Obs.CounterValue("bf4_solver_checks_total")
		if i == 0 {
			baseText, baseJSON, baseChecks = text, string(js), checks
			if checks == 0 {
				t.Errorf("workers=%d: no solver checks recorded", workers)
			}
			continue
		}
		if text != baseText {
			t.Errorf("text output differs at workers=%d", workers)
		}
		if string(js) != baseJSON {
			t.Errorf("json output differs at workers=%d", workers)
		}
		if checks != baseChecks {
			t.Errorf("bf4_solver_checks_total = %d at workers=%d, %d at workers=1", checks, workers, baseChecks)
		}
	}
}

// TestTaintJSONShape: the -json contract consumed by the CI corpus job.
func TestTaintJSONShape(t *testing.T) {
	src := progs.GenerateTaintSwitch(4, 1, true)
	rep, err := driver.Taint("leaky.p4", src, driver.DefaultTaintConfig())
	if err != nil {
		t.Fatalf("taint: %v", err)
	}
	js, err := rep.Report().RenderJSON("leaky.p4")
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var doc struct {
		File  string `json:"file"`
		Taint *struct {
			Alarms          int `json:"alarms"`
			Confirmed       int `json:"confirmed"`
			Dismissed       int `json:"dismissed"`
			StaticallyClean int `json:"statically_clean"`
			Sinks           int `json:"sinks"`
		} `json:"taint"`
		Diagnostics []map[string]interface{} `json:"diagnostics"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Taint == nil {
		t.Fatal("no \"taint\" object in JSON output")
	}
	if doc.Taint.Alarms != rep.Alarms || doc.Taint.Confirmed != rep.Confirmed ||
		doc.Taint.Dismissed != rep.Dismissed || doc.Taint.Sinks != rep.Sinks {
		t.Errorf("taint counters in JSON disagree with the report: %+v vs %+v", doc.Taint, rep)
	}
	var withWitness int
	for _, d := range doc.Diagnostics {
		if w, ok := d["witness"].(string); ok && w != "" {
			withWitness++
		}
	}
	if withWitness == 0 {
		t.Error("no diagnostic carries a witness field in JSON output")
	}
}
