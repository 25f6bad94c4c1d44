package ir_test

import (
	"testing"

	"bf4/internal/fixes"
	"bf4/internal/ir"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/progs"
)

// TestExtraKeysChangeTables: a key fixes.Apply appends to a table is
// expanded like a written one, and its metadata marks it synthesized.
func TestExtraKeysChangeTables(t *testing.T) {
	prog, err := parser.Parse(progs.Get("simple_nat").Source)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	info, err = fixes.Apply(prog, info, &fixes.Result{Keys: map[string][]string{"ipv4_lpm": {"hdr.ipv4.isValid()"}}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(prog, info, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := p.Tables["ipv4_lpm"]
	if len(tbl.Keys) != 2 {
		t.Fatalf("ipv4_lpm keys = %d, want 2", len(tbl.Keys))
	}
	if tbl.Keys[0].Synthesized {
		t.Fatal("the written key is marked synthesized")
	}
	k := tbl.Keys[1]
	if !k.Synthesized || k.Path != "hdr.ipv4.isValid()" || k.MatchKind != "exact" || k.Width != 1 {
		t.Fatalf("synthesized key: %+v", k)
	}
	if p.Vars["pcn_ipv4_lpm$0.key1"] == nil {
		t.Fatal("synthesized key var missing")
	}
}
