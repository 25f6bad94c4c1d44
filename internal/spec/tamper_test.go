package spec_test

import (
	"strings"
	"testing"

	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// TestParseForbiddenRefusesTamperedSpec: an annotation file is outside
// input. A real simple_nat file whose conditions or variable widths were
// edited must be refused by ParseForbidden — before the shim lowers or
// evaluates anything — and the untouched file must still load.
func TestParseForbiddenRefusesTamperedSpec(t *testing.T) {
	p := progs.Get("simple_nat")
	res, err := driver.Run(p.Name, p.Source, driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Spec().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	load := func(edit func(*spec.Assertion)) error {
		file, err := spec.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		a := file.AssertionsFor("nat")[0]
		edit(a)
		fac := smt.NewFactory()
		for i := range a.Forbidden {
			if _, err := a.ParseForbidden(fac, i); err != nil {
				return err
			}
		}
		return nil
	}
	if err := load(func(*spec.Assertion) {}); err != nil {
		t.Fatalf("untouched file refused: %v", err)
	}
	const hit, key, mask = "pcn_nat$0.hit", "pcn_nat$0.key1", "pcn_nat$0.mask3"
	for name, edit := range map[string]func(*spec.Assertion){
		"ill-sorted":     func(a *spec.Assertion) { a.Forbidden[0] = "(bvadd |" + hit + "| true)" },
		"not boolean":    func(a *spec.Assertion) { a.Forbidden[0] = "|" + key + "|" },
		"width mismatch": func(a *spec.Assertion) { a.Forbidden[0] = "(= |" + key + "| |" + mask + "|)" },
		"oversize width": func(a *spec.Assertion) { a.Forbidden[0] = "(= (_ bv1 70000000000) (_ bv1 70000000000))" },
		"unknown name":   func(a *spec.Assertion) { a.Forbidden[0] = "|hdr.ipv4.ttl|" },
		"sort changed":   func(a *spec.Assertion) { a.Vars[hit] = 8 },
		"negative width": func(a *spec.Assertion) { a.Vars[mask] = -32 },
		"huge width":     func(a *spec.Assertion) { a.Vars[mask] = 70000000000 },
	} {
		if err := load(edit); err == nil {
			t.Errorf("%s: tampered file accepted", name)
		} else if !strings.HasPrefix(err.Error(), "spec: ") {
			t.Errorf("%s: error %q does not name the spec layer", name, err)
		}
	}
}
