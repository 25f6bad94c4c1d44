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
	"bf4/internal/prop"
)

// propFixture generates one prop-exercise switch plus its gathered
// property list, the way `bf4 lint -props -family props` does.
func propFixture(t *testing.T, scale, seed int) (name, src string, props []*prop.Property) {
	t.Helper()
	name = fmt.Sprintf("propswitch@%d.p4", seed)
	src, spec := progs.GeneratePropSwitch(scale, seed)
	props, err := prop.ParseSpecFile(fmt.Sprintf("propswitch@%d.props", seed), []byte(spec))
	if err != nil {
		t.Fatalf("parse generated spec: %v", err)
	}
	if props, err = driver.GatherProps(name, src, "", props); err != nil {
		t.Fatalf("gather: %v", err)
	}
	return name, src, props
}

// TestPropGolden locks the exact `bf4 lint -props -family props` output
// — verdict tiers, witness fields, positions, summary line — for the
// generated family. Run with -update to accept intended changes.
func TestPropGolden(t *testing.T) {
	for seed := 1; seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			name, src, props := propFixture(t, 4, seed)
			rep, err := driver.Props(name, src, props, driver.DefaultConfig())
			if err != nil {
				t.Fatalf("props: %v", err)
			}
			got := rep.Report().RenderText(name)

			golden := filepath.Join("testdata", fmt.Sprintf("propswitch@%d.props.golden", seed))
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
				t.Errorf("props output drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestPropFamilies pins the semantic contract of the generated family
// across seeds: two solver-confirmed violations (at least one carrying
// a replayed packet witness), one solver-dismissed assert, one
// statically-discharged assert, two assumes.
func TestPropFamilies(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			name, src, props := propFixture(t, 4, seed)
			rep, err := driver.Props(name, src, props, driver.DefaultConfig())
			if err != nil {
				t.Fatalf("props: %v", err)
			}
			if rep.Confirmed != 2 {
				t.Errorf("seed %d: %d confirmed, want 2", seed, rep.Confirmed)
			}
			if rep.Dismissed != 1 {
				t.Errorf("seed %d: %d dismissed, want 1 (the two-branch gadget)", seed, rep.Dismissed)
			}
			if rep.Discharged == 0 {
				t.Errorf("seed %d: nothing discharged statically (the guard constant should be)", seed)
			}
			if rep.Assumes != 2 {
				t.Errorf("seed %d: %d assumes, want 2 (spec + source comment)", seed, rep.Assumes)
			}
			var witnessed int
			for _, d := range rep.Diags {
				if strings.HasPrefix(d.Msg, "property violated") && d.Witness != "" {
					witnessed++
				}
			}
			if witnessed == 0 {
				t.Errorf("seed %d: no confirmed violation carries a packet witness", seed)
			}
		})
	}
}

// TestPropDeterminism: solver confirmation fans out across workers, but
// rendered output — including the canonical witnesses — must stay
// byte-identical for every worker count, and every worker's solver must
// report to the registry: the solver-query count is the same (and not
// zero) whether one solver or four shared the work.
func TestPropDeterminism(t *testing.T) {
	name, src, props := propFixture(t, 4, 1)
	var baseText, baseJSON string
	var baseChecks int64
	for i, workers := range []int{1, 4} {
		cfg := driver.DefaultConfig()
		cfg.Workers, cfg.Obs = workers, obs.NewRegistry()
		rep, err := driver.Props(name, src, props, cfg)
		if err != nil {
			t.Fatalf("props (workers=%d): %v", workers, err)
		}
		text := rep.Report().RenderText(name)
		js, err := rep.Report().RenderJSON(name)
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

// TestPropJSONShape: the -json contract consumed by the CI corpus job,
// including the schema version stamp.
func TestPropJSONShape(t *testing.T) {
	name, src, props := propFixture(t, 4, 1)
	rep, err := driver.Props(name, src, props, driver.DefaultConfig())
	if err != nil {
		t.Fatalf("props: %v", err)
	}
	js, err := rep.Report().RenderJSON(name)
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var doc struct {
		Schema string `json:"schema"`
		File   string `json:"file"`
		Props  *struct {
			Properties int `json:"properties"`
			Checks     int `json:"checks"`
			Confirmed  int `json:"confirmed"`
			Dismissed  int `json:"dismissed"`
			Discharged int `json:"discharged"`
			Assumes    int `json:"assumes"`
		} `json:"props"`
		Diagnostics []map[string]interface{} `json:"diagnostics"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Schema == "" {
		t.Error("no \"schema\" field in JSON output")
	}
	if doc.Props == nil {
		t.Fatal("no \"props\" object in JSON output")
	}
	if doc.Props.Properties != rep.Props || doc.Props.Checks != rep.Checks ||
		doc.Props.Confirmed != rep.Confirmed || doc.Props.Dismissed != rep.Dismissed ||
		doc.Props.Discharged != rep.Discharged || doc.Props.Assumes != rep.Assumes {
		t.Errorf("props counters in JSON disagree with the report: %+v vs %+v", doc.Props, rep)
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
