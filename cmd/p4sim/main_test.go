package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain re-executes the test binary as the p4sim command when
// P4SIM_TEST_MAIN is set, so exit codes and output are tested against
// the real main().
func TestMain(m *testing.M) {
	if os.Getenv("P4SIM_TEST_MAIN") == "1" {
		os.Args = append([]string{"p4sim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runP4sim runs the command with the given arguments and returns its
// combined output and exit code.
func runP4sim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "P4SIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("p4sim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), ee.ExitCode()
}

const natScenario = "../../examples/scenarios/simple_nat.json"

// TestExampleScenario pins the example scenario's two lines.
func TestExampleScenario(t *testing.T) {
	out, code := runP4sim(t, "-corpus", "simple_nat", natScenario)
	want := "packet 0: forwarded (egress_spec=7, 131 steps)\n" +
		"packet 1: dropped (egress_spec=511, 53 steps)\n"
	if code != 0 || out != want {
		t.Fatalf("exit %d, output:\n%s\nwant exit 0, output:\n%s", code, out, want)
	}
}

// TestUnknownNamesAreErrors: an entry for a table the program does not
// have, or a packet field it has no variable for, is refused with exit
// 1 and a message naming it. Run silently, either misspelling would
// drop the scenario's first packet instead of forwarding it.
func TestUnknownNamesAreErrors(t *testing.T) {
	data, err := os.ReadFile(natScenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, from, to, want string }{
		{"table", `"nat"`, `"natt"`, `no table "natt"`},
		{"field", `"hdr.ipv4.srcAddr"`, `"hdr.ipv4.srcAdr"`, `packet field "hdr.ipv4.srcAdr"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(string(data), tc.from) {
				t.Fatalf("scenario has no %s to misspell", tc.from)
			}
			path := filepath.Join(t.TempDir(), "scenario.json")
			if err := os.WriteFile(path, []byte(strings.Replace(string(data), tc.from, tc.to, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			out, code := runP4sim(t, "-corpus", "simple_nat", path)
			if code != 1 || !strings.Contains(out, tc.want) {
				t.Fatalf("exit %d, output:\n%s\nwant exit 1 and a message containing %s", code, out, tc.want)
			}
		})
	}
}
