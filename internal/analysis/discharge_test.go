package analysis

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"bf4/internal/fixes"
	"bf4/internal/ir"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/progs"
)

// compile lowers src through the frontend, with fx applied when it is
// not nil.
func compile(t *testing.T, name, src string, fx *fixes.Result) *ir.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("%s: typecheck: %v", name, err)
	}
	if fx != nil {
		if info, err = fixes.Apply(prog, info, fx); err != nil {
			t.Fatalf("%s: apply fixes: %v", name, err)
		}
	}
	p, err := ir.Build(prog, info, ir.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	return p
}

// TestDischargedNodesAreReachableChecks: Discharge skips only bug checks
// the CFG reaches — on the corpus, the generated switch and a program
// compiled with validity keys added (the rebuild round's shape).
func TestDischargedNodesAreReachableChecks(t *testing.T) {
	type testCase struct {
		name, src string
		fx        *fixes.Result
	}
	var cases []testCase
	for _, p := range progs.All() {
		if p.Name != "switch" {
			cases = append(cases, testCase{p.Name, p.Source, nil})
		}
	}
	for _, n := range []int{1, 2, 4} {
		cases = append(cases, testCase{fmt.Sprintf("switch@%d", n), progs.GenerateSwitch(n), nil})
	}
	fixed := &fixes.Result{Keys: map[string][]string{"ipv4_lpm": {"hdr.ipv4.isValid()"}}, Special: []string{fixes.EgressSpecDrop}}
	cases = append(cases, testCase{"simple_nat+keys", progs.Get("simple_nat").Source, fixed})

	discharged := 0
	for _, c := range cases {
		p := compile(t, c.name, c.src, c.fx)
		res, reach := Discharge(p), map[*ir.Node]bool{}
		for _, n := range p.Topo() {
			reach[n] = true
		}
		for n := range res.Skip {
			if n.Kind != ir.BugTerm || !reach[n] {
				t.Errorf("%s: discharged n%d is not a CFG-reachable bug check", c.name, n.ID)
			}
		}
		discharged += len(res.Skip)
	}
	if discharged == 0 {
		t.Fatal("nothing was discharged anywhere: the test checks an empty set")
	}
}

// TestRangeFoldDischargesPinned pins what the pre-pass discharges on the 24
// hand-written programs and switch@1: Stats.BugChecks, Stats.Discharged and
// every discharged bug node by kind and position. No verdict notices a lost
// discharge (the solver then answers the check), so this is the test that
// does: without rangeFold, or with it blind to zero_extend, the
// register-oob entries go.
func TestRangeFoldDischargesPinned(t *testing.T) {
	want := map[string]struct {
		checks, n int
		nodes     string
	}{
		"07-MultiProtocol":   {11, 8, "egress-spec-not-set 0:0; invalid-header-read 48:9 56:9 64:9 86:9; invalid-header-write 86:9 98:9; invalid-key-read 115:27"},
		"arp":                {15, 12, "egress-spec-not-set 0:0; invalid-header-read 33:9 51:9 52:9 55:9; invalid-header-write 51:9 52:9 53:9 54:9 55:9 56:9; invalid-key-read 81:21"},
		"basic_routing":      {6, 4, "egress-spec-not-set 0:0; invalid-header-read 28:9; invalid-header-write 56:9 57:9"},
		"ecmp_2":             {6, 3, "invalid-header-read 31:9; invalid-header-write 60:9 61:9"},
		"firewall_stateful":  {7, 6, "egress-spec-not-set 0:0; invalid-header-read 30:9 68:9; invalid-header-write 68:9; register-oob 57:20 61:19"},
		"flowlet":            {7, 5, "egress-spec-not-set 0:0; invalid-header-read 29:9; invalid-header-write 58:9 59:9; register-oob 48:27"},
		"flowlet_switching":  {6, 4, "egress-spec-not-set 0:0; invalid-header-read 32:9; invalid-header-write 54:9; register-oob 51:24"},
		"hash_action_gw2":    {4, 2, "egress-spec-not-set 0:0; register-oob 38:23"},
		"heavy_hitter_1":     {7, 4, "register-oob 44:21 45:21 46:22 47:22"},
		"heavy_hitter_2":     {9, 4, "egress-spec-not-set 0:0; invalid-header-read 35:9 54:21; invalid-header-write 61:9"},
		"hula":               {9, 7, "egress-spec-not-set 0:0; invalid-header-read 29:9 48:23 49:24 61:9; invalid-header-write 61:9; invalid-key-read 71:29"},
		"int_telemetry":      {9, 6, "egress-spec-not-set 0:0; invalid-header-read 31:9; invalid-header-write 50:9 51:9 52:9; stack-overflow 37:20"},
		"issue894":           {6, 4, "egress-spec-not-set 0:0; invalid-header-read 20:9 41:9; invalid-key-read 50:22"},
		"linearroad_16":      {19, 11, "egress-spec-not-set 0:0; invalid-header-read 46:9 73:24 74:25 81:23 82:24; register-oob 73:24 74:25 81:23 82:24 89:24"},
		"mc_nat_16":          {3, 1, "egress-spec-not-set 0:0"},
		"mplb_router-ppc":    {4, 3, "egress-spec-not-set 0:0; invalid-header-read 28:9; invalid-key-read 60:32"},
		"ndp_router_16":      {7, 6, "egress-spec-not-set 0:0; invalid-header-read 28:9 45:9; invalid-header-write 45:9 54:9; invalid-key-read 62:22"},
		"netchain":           {10, 6, "egress-spec-not-set 0:0; invalid-header-read 27:9 46:19 51:20 52:19; invalid-header-write 47:9"},
		"netchain_16":        {11, 7, "egress-spec-not-set 0:0; invalid-header-read 32:9 50:19 55:20 66:9; invalid-header-write 51:9 66:9"},
		"netpaxos_accept_16": {8, 4, "egress-spec-not-set 0:0; invalid-header-read 40:21 44:21 45:21"},
		"qos_meter":          {5, 1, "egress-spec-not-set 0:0"},
		"resubmit":           {3, 2, "egress-spec-not-set 0:0; invalid-header-write 42:9"},
		"simple_nat":         {11, 5, "invalid-header-read 53:9 60:9; invalid-header-write 125:9 133:9 152:9"},
		"switch@1": {49, 32, "invalid-header-read 121:9 131:9 142:9 151:9 159:9 159:9 159:9 167:9 167:9 167:9 179:9 179:9 179:9 187:9 187:9 187:9 224:9 229:9 253:9 255:9 256:9 310:9; " +
			"invalid-header-write 310:9 322:9 332:9 409:9 449:9; invalid-key-read 419:38 421:41 424:23 425:23 428:35"},
		"ts_switching_16": {4, 2, "egress-spec-not-set 0:0; invalid-header-read 35:9"},
	}
	for _, p := range progs.All() {
		name, src := p.Name, p.Source
		if name == "switch" {
			name, src = "switch@1", progs.GenerateSwitch(1)
		}
		t.Run(name, func(t *testing.T) {
			pr := compile(t, name, src, nil)
			res := Discharge(pr)
			got, w := dischargedNodes(pr, res.Skip), want[name]
			if res.Stats.BugChecks != w.checks || res.Stats.Discharged != w.n || got != w.nodes {
				t.Errorf("discharged %d/%d: %q\nwant %d/%d: %q", res.Stats.Discharged, res.Stats.BugChecks, got, w.n, w.checks, w.nodes)
			}
		})
	}
}

// dischargedNodes renders the bug nodes of set grouped by kind, each kind's
// positions in source order: "kind line:col …; kind …".
func dischargedNodes(p *ir.Program, set map[*ir.Node]bool) string {
	byKind := map[string][]*ir.Node{}
	for _, bn := range p.Bugs {
		if set[bn] {
			byKind[bn.Bug.String()] = append(byKind[bn.Bug.String()], bn)
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	groups := make([]string, len(kinds))
	for i, k := range kinds {
		ns := byKind[k]
		sort.SliceStable(ns, func(x, y int) bool {
			a, b := ns[x].Pos, ns[y].Pos
			return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col
		})
		groups[i] = k
		for _, n := range ns {
			groups[i] += fmt.Sprintf(" %d:%d", n.Pos.Line, n.Pos.Col)
		}
	}
	return strings.Join(groups, "; ")
}
