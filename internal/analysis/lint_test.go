package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bf4/internal/analysis"
	"bf4/internal/ir"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/progs"
)

var update = flag.Bool("update", false, "rewrite golden lint files")

// lint compiles a corpus source through the frontend and runs the
// analysis layer, mirroring what `bf4 lint` does.
func lint(t *testing.T, name, src string) *analysis.Result {
	t.Helper()
	prog, err := parser.ParseFile(name, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	p, err := ir.Build(prog, info, ir.DefaultOptions())
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return analysis.Run(p, prog)
}

// TestLintGolden locks the exact diagnostic output for every corpus
// program. Any drift — a new false positive, a lost warning, a message
// rewording — fails CI; run with -update to accept intended changes.
func TestLintGolden(t *testing.T) {
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := p.Source
			if p.Name == "switch" {
				src = progs.GenerateSwitch(4)
			}
			file := p.Name + ".p4"
			res := lint(t, file, src)
			got := (&analysis.Report{Diags: res.Diags}).RenderText(file)

			golden := filepath.Join("testdata", p.Name+".lint.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/analysis -run TestLintGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("lint output drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestLintDiagnosticsHavePositions: every dataflow diagnostic (not the
// AST-level table lint, which always has positions by construction)
// must carry a real source position — a 0:0 diagnostic is unactionable.
func TestLintDiagnosticsHavePositions(t *testing.T) {
	for _, p := range progs.All() {
		src := p.Source
		if p.Name == "switch" {
			src = progs.GenerateSwitch(4)
		}
		res := lint(t, p.Name+".p4", src)
		for _, d := range res.Diags {
			if d.Line <= 0 || d.Col <= 0 {
				t.Errorf("%s: diagnostic without position: %s", p.Name, d.Format(p.Name))
			}
		}
	}
}

// TestLintJSONRoundTrips: the JSON rendering is well-formed and carries
// every diagnostic with its severity and pass name.
func TestLintJSONRoundTrips(t *testing.T) {
	res := lint(t, "simple_nat.p4", progs.Get("simple_nat").Source)
	if len(res.Diags) == 0 {
		t.Skip("simple_nat produces no diagnostics; golden covers this")
	}
	data, err := (&analysis.Report{Diags: res.Diags}).RenderJSON("simple_nat.p4")
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{`"file": "simple_nat.p4"`, `"pass"`, `"severity"`, `"line"`} {
		if !containsStr(string(data), want) {
			t.Errorf("JSON output missing %s:\n%s", want, data)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
