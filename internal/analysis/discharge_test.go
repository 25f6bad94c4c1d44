package analysis

import (
	"fmt"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/progs"
)

// TestConstPropDischargeSubsumesValidity pins the sentence Discharge rests
// on: every bug node the header-validity lattice proves unreachable, constant
// propagation proves unreachable too — on the corpus, the generated switch
// and a program compiled with validity keys added (the rebuild round's
// shape). So a round that runs constant propagation alone skips exactly the
// checks the whole layer would, and Run's Discharge is Discharge's.
func TestConstPropDischargeSubsumesValidity(t *testing.T) {
	type testCase struct {
		name, src string
		opts      ir.Options
	}
	var cases []testCase
	for _, p := range progs.All() {
		if p.Name != "switch" {
			cases = append(cases, testCase{p.Name, p.Source, ir.DefaultOptions()})
		}
	}
	for _, n := range []int{1, 2, 4} {
		cases = append(cases, testCase{fmt.Sprintf("switch@%d", n), progs.GenerateSwitch(n), ir.DefaultOptions()})
	}
	fixed := ir.DefaultOptions()
	fixed.ExtraKeys = map[string][]string{"ipv4_lpm": {"hdr.ipv4.isValid()"}}
	fixed.InitEgressSpecDrop = true
	cases = append(cases, testCase{"simple_nat+keys", progs.Get("simple_nat").Source, fixed})

	discharged := 0
	for _, c := range cases {
		prog, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("%s: typecheck: %v", c.name, err)
		}
		p, err := ir.Build(prog, info, c.opts)
		if err != nil {
			t.Fatalf("%s: lower: %v", c.name, err)
		}
		set, reach, _ := discharge(p)
		for n := range dischargeSet(p, reach, SolveForward(p.Start, NewValidity(p))) {
			if !set[n] {
				t.Errorf("%s: validity discharges n%d (%s), constant propagation does not", c.name, n.ID, n.Comment)
			}
		}
		res := Run(p, prog)
		if len(res.Discharge) != len(set) || res.Stats.Discharged != len(set) {
			t.Errorf("%s: Run discharges %d checks, Discharge %d", c.name, len(res.Discharge), len(set))
		}
		for n := range set {
			if !res.Discharge[n] {
				t.Errorf("%s: Discharge skips n%d, Run does not", c.name, n.ID)
			}
		}
		discharged += len(set)
	}
	if discharged == 0 {
		t.Fatal("nothing was discharged anywhere: the test compares empty sets")
	}
}
