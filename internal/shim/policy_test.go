package shim_test

import (
	"math/big"
	"strings"
	"testing"

	"bf4/internal/core"
	"bf4/internal/dataplane"
	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/prop"
	"bf4/internal/shim"
	"bf4/internal/spec"
)

// verifyToFile runs the compile-time loop and takes its annotation file
// the way the standalone shim gets it: marshalled and parsed back.
func verifyToFile(t testing.TB, name, src string, cfg driver.Config) (*driver.Result, *spec.File) {
	t.Helper()
	res, err := driver.Run(name, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Spec().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	file, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return res, file
}

// buggyActions finds, from the bug report alone, the (instance prefix,
// action) pairs whose body holds a reachable bug.
func buggyActions(rep *core.Report) map[[2]string]*core.Bug {
	out := map[[2]string]*core.Bug{}
	for _, b := range rep.Bugs {
		if !b.Reachable || b.Instance == nil {
			continue
		}
		if act := b.Instance.ActionOfNode(b.Node); act != "" {
			out[[2]string{b.Instance.Prefix(), act}] = b
		}
	}
	return out
}

// TestDefaultRulePolicyThroughTheChain follows paper §4.4's default-rule
// policy ("reject a default action that contains a reachable bug") from
// the verifier's final round through the annotation file into the shim,
// for every corpus program: the file flags exactly the actions of the
// program the switch runs that hold a reachable bug, and a shim loaded
// from the file refuses each of them as a default and admits the others.
// A file assembled from round 0's report flags nothing on a rebuilt
// program (its nodes are another compile's): every rebuilt program but
// firewall_stateful, whose final round leaves no bug inside an action,
// fails here on such a file.
func TestDefaultRulePolicyThroughTheChain(t *testing.T) {
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := p.Source
			if p.Name == "switch" {
				if testing.Short() {
					t.Skip("verifies a generated switch; skipped in -short")
				}
				src = progs.GenerateSwitch(1)
			}
			res, file := verifyToFile(t, p.Name, src, driver.DefaultConfig())
			_, rep, _ := res.Final()
			want := buggyActions(rep)

			flagged := map[string]bool{} // table.action, over all of a table's instances
			for _, ts := range file.Tables {
				for _, a := range ts.Actions {
					if _, buggy := want[[2]string{ts.Prefix, a.Name}]; buggy != a.Buggy {
						t.Errorf("%s action %s: file says buggy=%v, final report says %v", ts.Prefix, a.Name, a.Buggy, buggy)
					}
					if a.Buggy {
						flagged[ts.Name+"."+a.Name] = true
					}
				}
			}

			sh, err := shim.New(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, ts := range file.Tables {
				for _, a := range ts.Actions {
					d := &dataplane.DefaultAction{Action: a.Name, Params: make([]*big.Int, len(a.Params))}
					for i := range d.Params {
						d.Params[i] = new(big.Int)
					}
					err := sh.Apply(&shim.Update{Table: ts.Name, SetDefault: d})
					switch {
					case flagged[ts.Name+"."+a.Name] && err == nil:
						t.Errorf("set_default %s := %s admitted; the action holds a reachable bug", ts.Name, a.Name)
					case !flagged[ts.Name+"."+a.Name] && err != nil:
						t.Errorf("set_default %s := %s refused: %v", ts.Name, a.Name, err)
					}
				}
			}
		})
	}
}

// TestBuggyDefaultReachesItsBug is why the policy exists, judged by the
// concrete interpreter on simple_nat. Rules the shim admits steer an ARP
// packet (no ipv4 header) to ipv4_lpm, where it misses and is dropped.
// With set_nhop as ipv4_lpm's default — which the shim refuses, so it is
// written into the snapshot behind its back — the same packet reaches the
// TTL decrement on the invalid header: the very bug node the final report
// lists inside set_nhop.
func TestBuggyDefaultReachesItsBug(t *testing.T) {
	p := progs.Get("simple_nat")
	res, file := verifyToFile(t, p.Name, p.Source, driver.DefaultConfig())
	pl, rep, _ := res.Final()
	bug := buggyActions(rep)[[2]string{"pcn_ipv4_lpm$0", "set_nhop"}]
	if bug == nil {
		t.Fatal("final report has no reachable bug inside ipv4_lpm's set_nhop")
	}
	sh, err := shim.New(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []*shim.Update{
		{Table: "if_info", Entry: &dataplane.Entry{
			Keys: []dataplane.KeyMatch{dataplane.NewExact(1)}, Action: "set_if_info", Params: []*big.Int{big.NewInt(0)}}},
		// Translate whatever arrives on an internal port without ipv4 or
		// tcp: every ternary mask is empty, so no invalid field is read.
		{Table: "nat", Entry: &dataplane.Entry{
			Keys: []dataplane.KeyMatch{dataplane.NewExact(0), dataplane.NewExact(0), dataplane.NewExact(0),
				dataplane.NewTernary(0, 0), dataplane.NewTernary(0, 0), dataplane.NewTernary(0, 0), dataplane.NewTernary(0, 0)},
			Action: "nat_hit_int_to_ext", Params: []*big.Int{big.NewInt(1), big.NewInt(1)}}},
	} {
		if err := sh.Apply(u); err != nil {
			t.Fatalf("sane rule refused: %v", err)
		}
	}
	override := &dataplane.DefaultAction{Action: "set_nhop", Params: []*big.Int{big.NewInt(1), big.NewInt(7)}}
	if err := sh.Apply(&shim.Update{Table: "ipv4_lpm", SetDefault: override}); err == nil {
		t.Fatal("shim admitted set_nhop as ipv4_lpm's default")
	}

	arp := dataplane.Packet{}
	arp.SetField("smeta.ingress_port", 1)
	arp.SetField("hdr.ethernet.etherType", 0x806)
	run := func(snap *dataplane.Snapshot) *dataplane.Trace {
		tr, err := (&dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: arp}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	snap := sh.Snapshot()
	if tr := run(snap); tr.Bug() {
		t.Fatalf("shim-accepted snapshot: packet hit %s", tr.Terminal)
	}
	snap.Defaults["ipv4_lpm"] = override
	if tr := run(snap); tr.Terminal != bug.Node {
		t.Fatalf("with the refused default installed the packet ended at %s, want the bug %s", tr.Terminal, bug.Description())
	}
}

// TestControlledPropertyReadsControlled: a user property has the status
// the final round gave it. simple_nat takes a rebuild; "a nat hit never
// drops" is violated under arbitrary entries and controlled by an inferred
// annotation, and that is what the file must say — a file built from round
// 0's report looks the rebuilt node up in a map keyed by the old one and
// records "violated".
func TestControlledPropertyReadsControlled(t *testing.T) {
	p := progs.Get("simple_nat")
	props, err := prop.ParseSpecFile("nat.props", []byte("@assert @after(nat) (hit(nat) -> action_run(nat) != drop_)\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.DefaultConfig()
	cfg.IR.Instrument = prop.Instrumenter(props)
	res, file := verifyToFile(t, p.Name, p.Source, cfg)
	if res.Rounds == 0 {
		t.Fatal("premise: simple_nat takes a rebuild round")
	}
	if len(file.Properties) != 1 {
		t.Fatalf("file records %d properties, want 1", len(file.Properties))
	}
	if pr := file.Properties[0]; pr.Status != "controlled" || pr.Table != "nat" || !strings.Contains(pr.Text, "drop_") {
		t.Fatalf("property record %+v, want status controlled in table nat", *pr)
	}
}
