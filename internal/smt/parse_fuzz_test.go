package smt_test

import (
	"testing"

	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/smt"
)

// corpusConditions verifies every hand-written corpus program and returns
// the forbidden conditions of its annotation file, with one sort
// environment covering them all (a name two programs use at different
// widths keeps the first). Each condition must parse under its own
// assertion's variables and print back byte for byte: the round trip the
// shim depends on, on every condition the verifier really emits.
func corpusConditions(tb testing.TB) ([]string, smt.VarSorts) {
	tb.Helper()
	var conds []string
	sorts := smt.VarSorts{}
	for _, p := range progs.All() {
		if p.Name == "switch" {
			continue // generated; its conditions repeat the shapes below
		}
		res, err := driver.Run(p.Name, p.Source, driver.DefaultConfig())
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		file := res.Spec()
		for _, a := range file.Assertions {
			f := smt.NewFactory()
			for i, src := range a.Forbidden {
				term, err := a.ParseForbidden(f, i)
				if err != nil {
					tb.Fatalf("%s: table %s: %v", p.Name, a.Table, err)
				}
				if out := smt.Serialize(term); out != src {
					tb.Fatalf("%s: table %s: condition %d reads back as %s, file has %s", p.Name, a.Table, i, out, src)
				}
				conds = append(conds, src)
			}
			for name, w := range a.Vars {
				if _, ok := sorts[name]; !ok {
					sorts[name] = smt.Sort{Width: w}
				}
			}
		}
	}
	if len(conds) < 24 {
		tb.Fatalf("only %d forbidden conditions in the corpus", len(conds))
	}
	return conds, sorts
}

// FuzzParse: Parse is the boundary where spec-file bytes become terms. It
// may refuse its input but must never panic, and whatever it accepts must
// Serialize to a string that parses back to the same interned term.
func FuzzParse(f *testing.F) {
	conds, sorts := corpusConditions(f)
	for _, src := range conds {
		f.Add(src)
	}
	for _, src := range []string{
		"(bvadd |pcn_nat$0.hit| true)",
		"(_ bv1 70000000000)",
		"((_ zero_extend -3) (_ bv5 8))",
		"((_ extract 7 4) (concat (_ bv171 8) (_ bv205 8)))",
		"(ite (bvslt (_ bv200 8) (bvashr (_ bv128 8) (_ bv9 8))) true false)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fac := smt.NewFactory()
		term, err := smt.Parse(fac, src, sorts)
		if err != nil {
			return
		}
		out := smt.Serialize(term)
		back, err := smt.Parse(fac, out, sorts)
		if err != nil {
			t.Fatalf("Parse(%q) = %s, which does not parse back: %v", src, out, err)
		}
		if back != term {
			t.Fatalf("Parse(%q) = %s, which parses back to %s", src, out, smt.Serialize(back))
		}
	})
}
