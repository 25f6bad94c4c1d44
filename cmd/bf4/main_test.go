package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bf4/internal/progs"
)

// TestMain re-executes the test binary as the bf4 command when
// BF4_TEST_MAIN is set, so the exit-code contract (0 clean, 1 findings,
// 2 usage or parse error) is tested against the real main().
func TestMain(m *testing.M) {
	if os.Getenv("BF4_TEST_MAIN") == "1" {
		os.Args = append([]string{"bf4"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBF4 runs the command form with the given arguments and returns its
// combined output and exit code.
func runBF4(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BF4_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("bf4 %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), ee.ExitCode()
}

// writePropFixture writes the generated prop-exercise program and its
// spec into a temp dir and returns their paths.
func writePropFixture(t *testing.T) (p4, props string) {
	t.Helper()
	dir := t.TempDir()
	src, spec := progs.GeneratePropSwitch(2, 1)
	p4 = filepath.Join(dir, "propswitch.p4")
	props = filepath.Join(dir, "propswitch.props")
	if err := os.WriteFile(p4, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(props, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return p4, props
}

func TestLintPropsExitFindings(t *testing.T) {
	// The generated family has confirmed violations: exit 1.
	out, code := runBF4(t, "lint", "-props", "-family", "props", "-switch-scale", "2")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (confirmed violations)\n%s", code, out)
	}
	if !strings.Contains(out, "property violated") || !strings.Contains(out, "{flow:") {
		t.Errorf("output lacks a confirmed violation with witness:\n%s", out)
	}
	if !strings.Contains(out, "props: ") {
		t.Errorf("output lacks the props summary line:\n%s", out)
	}
}

func TestLintPropsExitClean(t *testing.T) {
	// Only the statically-provable assert: exit 0.
	p4, _ := writePropFixture(t)
	spec := filepath.Join(t.TempDir(), "clean.props")
	if err := os.WriteFile(spec, []byte("@assert(meta.m.guard == 8w7)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runBF4(t, "lint", "-props", "-spec", spec, p4)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (property discharged)\n%s", code, out)
	}
	if !strings.Contains(out, "discharged statically") {
		t.Errorf("output lacks the discharged verdict:\n%s", out)
	}
}

func TestLintPropsExitUsage(t *testing.T) {
	p4, _ := writePropFixture(t)

	// Malformed spec file: exit 2.
	bad := filepath.Join(t.TempDir(), "bad.props")
	if err := os.WriteFile(bad, []byte("@assert(oops\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runBF4(t, "lint", "-props", "-spec", bad, p4); code != 2 {
		t.Errorf("malformed spec: exit %d, want 2\n%s", code, out)
	}

	// Missing spec file: exit 2.
	if out, code := runBF4(t, "lint", "-props", "-spec", "/nonexistent.props", p4); code != 2 {
		t.Errorf("missing spec: exit %d, want 2\n%s", code, out)
	}

	// Property referencing an unknown field: exit 2.
	badType := filepath.Join(t.TempDir(), "badtype.props")
	if err := os.WriteFile(badType, []byte("@assert(hdr.nosuch.field == 1)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runBF4(t, "lint", "-props", "-spec", badType, p4); code != 2 {
		t.Errorf("typecheck error: exit %d, want 2\n%s", code, out)
	}

	// No input at all: exit 2.
	if out, code := runBF4(t, "lint", "-props"); code != 2 {
		t.Errorf("no input: exit %d, want 2\n%s", code, out)
	}

	// Bad flag values and unreadable inputs are usage errors too: exit 2,
	// never 1 — CI reads 1 as "the family has findings".
	for _, args := range [][]string{
		{"lint", "-family", "nosuch"},
		{"lint", "-taint", "-taint-family", "nosuch"},
		{"lint", "-spec", bad, p4},
		{"lint", "-corpus", "nosuch"},
		{"lint", "/nonexistent.p4"},
	} {
		if out, code := runBF4(t, args...); code != 2 {
			t.Errorf("bf4 %s: exit %d, want 2\n%s", strings.Join(args, " "), code, out)
		}
	}
}

func TestCheckAssertLoop(t *testing.T) {
	// The full verify→infer loop: the selection property is controlled
	// by inferred annotations, the data property stays violated, and the
	// command itself succeeds (findings go to the spec, not exit codes).
	p4, props := writePropFixture(t)
	out, code := runBF4(t, "-check=assert", "-prop-spec", props, "-render", p4)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{
		"controlled by inferred annotations",
		"VIOLATED (uncontrolled after inference)",
		"assert: 2 hold, 1 controlled after inference, 1 violated",
		"-- property",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestCheckAssertUsageErrors(t *testing.T) {
	p4, props := writePropFixture(t)

	// -prop-spec without -check=assert is a usage error.
	if out, code := runBF4(t, "-prop-spec", props, p4); code == 0 {
		t.Errorf("-prop-spec without -check=assert: exit %d, want non-zero\n%s", code, out)
	}

	// Malformed spec under -check=assert: exit 2.
	bad := filepath.Join(t.TempDir(), "bad.props")
	if err := os.WriteFile(bad, []byte("@assert(oops\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runBF4(t, "-check=assert", "-prop-spec", bad, p4); code != 2 {
		t.Errorf("malformed spec: exit %d, want 2\n%s", code, out)
	}
}

// TestTraceShowsDataplaneBugs: under -trace a "dataplane bug" line is
// followed by the run that reaches it — on the final program, under rules the
// inferred annotations admit (TestUncontrolledWitnessesAreCertificates holds
// the witness to that) — on the two corpus programs the loop leaves a bug in.
// Without -trace the line stands alone.
func TestTraceShowsDataplaneBugs(t *testing.T) {
	for _, name := range []string{"linearroad_16", "mplb_router-ppc"} {
		out, code := runBF4(t, "-corpus", name, "-trace")
		if code != 0 {
			t.Fatalf("%s: exit %d, want 0\n%s", name, code, out)
		}
		_, after, found := strings.Cut(out, "dataplane bug (fix the P4 code): ")
		if !found {
			t.Fatalf("%s: no dataplane bug reported:\n%s", name, out)
		}
		desc, trace, _ := strings.Cut(after, "\n")
		if !strings.HasPrefix(trace, "counterexample for "+desc+"\n") || !strings.Contains(trace, "** BUG") {
			t.Errorf("%s: the dataplane bug line is not followed by its counterexample:\n%s", name, after)
		}
		if plain, _ := runBF4(t, "-corpus", name); strings.Contains(plain, "counterexample") {
			t.Errorf("%s: a counterexample printed without -trace:\n%s", name, plain)
		}
	}
}
