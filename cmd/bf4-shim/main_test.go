package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/spec"
)

// TestMain re-executes the test binary as the bf4-shim command when
// BF4_TEST_MAIN is set, so start-up failures are tested against the real
// main().
func TestMain(m *testing.M) {
	if os.Getenv("BF4_TEST_MAIN") == "1" {
		os.Args = append([]string{"bf4-shim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs bf4-shim's main() with args and returns its exit code and
// combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BF4_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatalf("bf4-shim %v: %v\n%s", args, err, out)
	}
	return 0, string(out)
}

func forbid(cond string) func(*spec.File) {
	return func(f *spec.File) { f.AssertionsFor("nat")[0].Forbidden[0] = cond }
}

// TestTamperedSpecIsRefusedAtLoad: a spec file whose forbidden conditions
// are ill-sorted, not boolean or absurdly wide, or whose key widths are,
// makes bf4-shim exit 1 with one line naming the layer — no goroutine
// trace, no allocation sized by the file's numbers.
func TestTamperedSpecIsRefusedAtLoad(t *testing.T) {
	p := progs.Get("simple_nat")
	res, err := driver.Run(p.Name, p.Source, driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := res.Spec()
	for name, tamper := range map[string]func(*spec.File){
		"ill-sorted":  forbid("(bvadd |pcn_nat$0.hit| true)"),
		"not-boolean": forbid("|pcn_nat$0.key1|"),
		"oversize":    forbid("(= (_ bv1 70000000000) (_ bv1 70000000000))"),
		"key-width": func(f *spec.File) {
			for _, ts := range f.Tables {
				if ts.Name == "ipv4_lpm" {
					ts.Keys[0].Width = 70000000000
				}
			}
		},
	} {
		data, err := good.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		file, err := spec.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		tamper(file)
		if data, err = file.Marshal(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := runMain(t, "-spec", path, "-listen", "127.0.0.1:0")
		if code != 1 {
			t.Errorf("%s: bf4-shim -spec: exit status %d, want 1\n%s", name, code, out)
			continue
		}
		msg := strings.TrimSpace(out)
		if strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine") ||
			!(strings.HasPrefix(msg, "shim: ") || strings.HasPrefix(msg, "spec: ")) {
			t.Errorf("%s: want one line starting shim: or spec:, got\n%s", name, msg)
		}
	}
}

// TestLegacyStateDirIsRefusedAtStart: -state-dir on a directory the JSON
// persistence wrote, or one whose top level holds the state of a
// single-switch shim, makes bf4-shim exit 1 with one line naming the file;
// it neither starts empty over acknowledged state nor touches the files.
// Each shard keeps its state in <state-dir>/<id>/; the guard refuses by
// name and reads no file.
func TestLegacyStateDirIsRefusedAtStart(t *testing.T) {
	p := progs.Get("simple_nat")
	res, err := driver.Run(p.Name, p.Source, driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Spec().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(t.TempDir(), "nat.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"journal.jsonl", "snapshot.bin", "journal.bin"} {
		dir := t.TempDir()
		legacy := filepath.Join(dir, name)
		record := `{"seq":1,"ops":[{"table":"nat","default":{"action":"drop_"}}]}` + "\n"
		if err := os.WriteFile(legacy, []byte(record), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := runMain(t, "-spec", specPath, "-state-dir", dir, "-listen", "127.0.0.1:0")
		msg := strings.TrimSpace(out)
		if code != 1 || strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "shim: ") || !strings.Contains(msg, legacy) {
			t.Errorf("exit status %d, want 1 and one line starting shim: that names %s, got\n%s", code, legacy, msg)
		}
		if left, _ := os.ReadFile(legacy); string(left) != record {
			t.Errorf("the refused journal was modified")
		}
		if names, _ := os.ReadDir(dir); len(names) != 1 {
			t.Errorf("the refused directory now holds %d files", len(names))
		}
	}
}
