package shim_test

import (
	"strings"
	"testing"

	"bf4/internal/shim"
	"bf4/internal/spec"
)

// wellFormedSpec is a small annotation file of the shape bf4 writes: one
// table keyed on a validity bit and an lpm field, two actions, one
// forbidden rule shape.
const wellFormedSpec = `{
  "program": "tiny",
  "tables": [
    {
      "name": "fwd",
      "keys": [
        {"path": "hdr.ipv4.isValid()", "match_kind": "exact", "width": 1},
        {"path": "hdr.ipv4.dstAddr", "match_kind": "lpm", "width": 32}
      ],
      "actions": [
        {"name": "drop_", "index": 0},
        {"name": "set_nhop", "params": [{"name": "port", "width": 9}], "index": 1, "buggy": true}
      ],
      "default": "drop_",
      "prefix": "pcn_fwd$0"
    }
  ],
  "assertions": [
    {
      "table": "fwd",
      "source": "fast-infer",
      "forbidden": ["(and |pcn_fwd$0.hit| (= |pcn_fwd$0.action_run| (_ bv1 8)) (= |pcn_fwd$0.key0| (_ bv0 1)))"],
      "vars": {"pcn_fwd$0.hit": 0, "pcn_fwd$0.action_run": 8, "pcn_fwd$0.key0": 1}
    }
  ]
}`

// TestCompileRefusesHostileFiles: an annotation file is outside input. A
// null table, action or assertion, and a key or parameter width outside 1
// to smt.MaxWidth, are each an error from Compile that names where it is,
// not a panic and not a table whose every rule "does not fit its -3 bits".
func TestCompileRefusesHostileFiles(t *testing.T) {
	if _, err := shim.Compile(parseSpec(t, wellFormedSpec)); err != nil {
		t.Fatalf("the well-formed file: %v", err)
	}
	for _, tc := range []struct{ name, from, to, want string }{
		{"null table", `"tables": [`, `"tables": [null, `, "table 0 is null"},
		{"null action", `"actions": [`, `"actions": [null, `, "table fwd: action 0 is null"},
		{"null assertion", `"assertions": [`, `"assertions": [null, `, "assertion 0 is null"},
		{"parameter width -3", `"width": 9`, `"width": -3`, "table fwd: action set_nhop: parameter port has width -3, want 1 to 4096"},
		{"parameter width 0", `"width": 9`, `"width": 0`, "table fwd: action set_nhop: parameter port has width 0, want 1 to 4096"},
		{"parameter width 4097", `"width": 9`, `"width": 4097`, "table fwd: action set_nhop: parameter port has width 4097, want 1 to 4096"},
		{"parameter width 100000000", `"width": 9`, `"width": 100000000`, "parameter port has width 100000000"},
		{"key width 0", `"width": 32`, `"width": 0`, "table fwd: key hdr.ipv4.dstAddr has width 0, want 1 to 4096"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.Replace(wellFormedSpec, tc.from, tc.to, 1)
			if src == wellFormedSpec {
				t.Fatalf("premise: %q is not in the file", tc.from)
			}
			_, err := shim.Compile(parseSpec(t, src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Compile = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

func parseSpec(tb testing.TB, src string) *spec.File {
	tb.Helper()
	file, err := spec.Parse([]byte(src))
	if err != nil {
		tb.Fatal(err)
	}
	return file
}

// FuzzCompileSpec: whatever bytes spec.Parse accepts, shim.Compile returns a
// compiled annotation set or an error; it does not panic.
func FuzzCompileSpec(f *testing.F) {
	f.Add([]byte(wellFormedSpec))
	f.Add([]byte(`{"tables":[{"name":"t","keys":[{"path":"k","match_kind":"ternary","width":4096}],` +
		`"actions":[{"name":"a","params":[{"name":"p","width":4096}],"index":0}],"prefix":"t$0"}],` +
		`"assertions":[{"table":"t","linked":"t","forbidden":["(= |t$0.a.p| (_ bv0 4096))"],"vars":{"t$0.a.p":4096}}]}`))
	nat, err := corpusSpec(f, "simple_nat").Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nat)
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := spec.Parse(data)
		if err != nil {
			return
		}
		shim.Compile(file)
	})
}
