package fixes

import (
	"strings"
	"testing"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
)

// applyTo parses and checks src, then applies fx.
func applyTo(t *testing.T, src string, fx *Result) (*ast.Program, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Apply(prog, info, fx)
	return prog, err
}

// TestApplyEditsTheProgram: a key lands last in its table, marked
// synthesized, and the egress-spec fix is the first statement of ingress.
func TestApplyEditsTheProgram(t *testing.T) {
	prog, err := applyTo(t, natSrc, &Result{
		Keys:    map[string][]string{"ipv4_lpm": {"hdr.ipv4.isValid()"}},
		Special: []string{EgressSpecDrop},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := ast.Print(prog)
	for _, want := range []string{
		"meta.meta.nhop: lpm;\n            hdr.ipv4.isValid(): exact;",
		"apply {\n        mark_to_drop(smeta);\n        nat.apply();",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fixed program lacks %q:\n%s", want, out)
		}
	}
	var synthesized []bool
	for _, d := range prog.Decls {
		if ctl, ok := d.(*ast.ControlDecl); ok {
			for _, l := range ctl.Locals {
				if td, ok := l.(*ast.TableDecl); ok && td.Name == "ipv4_lpm" {
					for _, k := range td.Keys {
						synthesized = append(synthesized, k.Synthesized)
					}
				}
			}
		}
	}
	if len(synthesized) != 2 || synthesized[0] || !synthesized[1] {
		t.Errorf("ipv4_lpm keys synthesized = %v, want [false true]", synthesized)
	}
}

// TestApplyRefusesWhatItCannotPlace: a key for a table the program does not
// declare and a key the fixed program cannot type are errors, not skipped.
func TestApplyRefusesWhatItCannotPlace(t *testing.T) {
	for name, fx := range map[string]*Result{
		"undeclared table": {Keys: map[string][]string{"no_such_table": {"hdr.ipv4.isValid()"}}},
		"unparsable key":   {Keys: map[string][]string{"ipv4_lpm": {"hdr.ipv4."}}},
		"untypable key":    {Keys: map[string][]string{"ipv4_lpm": {"hdr.ipv6.isValid()"}}},
	} {
		if _, err := applyTo(t, natSrc, fx); err == nil {
			t.Errorf("%s: Apply succeeded", name)
		}
	}
}
