package baseline

import (
	"slices"
	"strings"
	"testing"

	"bf4/internal/core"
	"bf4/internal/dataplane"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/smt"
	"bf4/internal/solver"
)

const natSrc = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<32> srcAddr; bit<32> dstAddr; }
struct meta_t { bit<1> do_forward; bit<32> nhop; }
struct metadata { meta_t meta; }
struct headers { ethernet_t ethernet; ipv4_t ipv4; }

parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etherType) {
            16w0x800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 { pkt.extract(hdr.ipv4); transition accept; }
}

control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    action drop_() { mark_to_drop(smeta); }
    action nat_hit(bit<32> a) {
        meta.meta.do_forward = 1w1;
        meta.meta.nhop = a;
    }
    table nat {
        key = { hdr.ipv4.isValid(): exact; hdr.ipv4.srcAddr: ternary; }
        actions = { drop_; nat_hit; }
        default_action = drop_();
    }
    action set_nhop(bit<32> nhop, bit<9> port) {
        meta.meta.nhop = nhop;
        smeta.egress_spec = port;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 8w1;
    }
    table ipv4_lpm {
        key = { meta.meta.nhop: lpm; }
        actions = { set_nhop; drop_; }
    }
    apply {
        nat.apply();
        if (meta.meta.do_forward == 1w1) {
            ipv4_lpm.apply();
        }
    }
}
V1Switch(P(), Ing()) main;
`

func compileNAT(t *testing.T) *core.Pipeline {
	t.Helper()
	pl, err := core.Compile(natSrc, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// natDefaultSrc is the NAT program with a default action whose parameter
// the program leaves to the controller: nat_miss(1) forwards a packet nat
// does not match to ipv4_lpm, whose set_nhop decrements an IPv4 TTL the
// packet may lack.
var natDefaultSrc = strings.Replace(strings.Replace(natSrc,
	`        actions = { drop_; nat_hit; }
        default_action = drop_();`,
	`        actions = { drop_; nat_hit; nat_miss; }
        default_action = nat_miss();`, 1),
	`    table nat {`,
	`    action nat_miss(bit<1> fwd) { meta.meta.do_forward = fwd; }
    table nat {`, 1)

// TestVeraConcreteDefaultsMatchInterp: Vera's snapshot mode must run a
// table as dataplane.Interp does. Every path Vera takes to a bug is solved
// for a packet, and Interp on the snapshot must reach that bug on it; so
// the two bug sets are equal. The snapshots: nat with no entries and a
// default that forwards — the declared nat_miss with a non-zero
// parameter, or nat_hit on the hit side as an entry matching every
// packet — which reaches ipv4_lpm's set_nhop on a non-IPv4 packet, a bug
// a zero parameter or the declared default would not reach; a miss that
// only valid IPv4 packets take, since an entry matches the others; and an
// entry that wins only where a higher-priority one does not match.
func TestVeraConcreteDefaultsMatchInterp(t *testing.T) {
	pl, err := core.Compile(natDefaultSrc, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	natEntry := func(valid, src, mask int64, prio int, action string, params ...dataplane.Value) *dataplane.Entry {
		return &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewExact(valid), dataplane.NewTernary(src, mask)},
			Action: action, Params: params, Priority: prio,
		}
	}
	for _, c := range []struct {
		name     string
		def      *dataplane.DefaultAction
		nat      []*dataplane.Entry
		wantBugs bool
	}{
		{"declared default", &dataplane.DefaultAction{Action: "nat_miss", Params: []dataplane.Value{dataplane.U64(1)}}, nil, true},
		{"another default", &dataplane.DefaultAction{Action: "nat_hit", Params: []dataplane.Value{dataplane.U64(7)}}, nil, true},
		{"miss where no entry matches", &dataplane.DefaultAction{Action: "nat_miss", Params: []dataplane.Value{dataplane.U64(1)}},
			[]*dataplane.Entry{natEntry(0, 0, 0, 0, "drop_")}, false},
		{"priority", nil, []*dataplane.Entry{
			natEntry(0, 0, 0, 1, "nat_hit", dataplane.U64(1)),
			natEntry(0, 0, 1, 2, "drop_"), // even source addresses: reads an invalid key
		}, true},
	} {
		snap := dataplane.NewSnapshot()
		if c.def != nil {
			snap.Defaults["nat"] = c.def
		}
		for _, e := range c.nat {
			snap.Insert("nat", e)
		}
		snap.Insert("ipv4_lpm", &dataplane.Entry{
			Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0, 0)},
			Action: "set_nhop",
			Params: []dataplane.Value{dataplane.U64(1), dataplane.U64(2)},
		})
		paths, reached := 0, map[*ir.Node]bool{}
		r, err := vera(pl, VeraOptions{Snapshot: snap}, func(bug *ir.Node, pc *smt.Term) {
			paths++
			s := solver.New()
			if s.Check(pc) != solver.Sat {
				t.Fatalf("%s: a path to %s has no packet", c.name, bug)
			}
			// A havoc's fresh variable names the packet field it reads.
			pkt := dataplane.Packet{}
			for name, v := range s.Model() {
				if i := strings.Index(name, "$vera"); i >= 0 {
					name = name[:i]
				}
				pkt[name] = v
			}
			tr, err := (&dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: pkt}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if tr.Terminal != bug {
				t.Errorf("%s: Vera's path reaches %s, Interp on its packet %v reaches %s", c.name, bug, pkt, tr.Terminal)
			}
			if tr.Bug() {
				reached[tr.Terminal] = true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed || (paths > 0) != c.wantBugs {
			t.Fatalf("%s: completed=%v, %d paths to a bug", c.name, r.Completed, paths)
		}
		if len(reached) != len(r.BugsHit) {
			t.Errorf("%s: Vera reached %d bugs, Interp %d on its packets", c.name, len(r.BugsHit), len(reached))
		}
		for b := range reached {
			if !r.BugsHit[b] {
				t.Errorf("%s: Interp reached %s, Vera did not", c.name, b)
			}
		}
	}
}

// TestVeraRefusesUnlistedActions: a snapshot that runs an action its
// table does not list is an error, in an entry or as the default, as it
// is in dataplane.Interp — not a path with the action index 0.
func TestVeraRefusesUnlistedActions(t *testing.T) {
	pl := compileNAT(t)
	entry := dataplane.NewSnapshot()
	entry.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0, 0)},
		Action: "bogus",
	})
	def := dataplane.NewSnapshot()
	def.Defaults["nat"] = &dataplane.DefaultAction{Action: "bogus"}
	for _, snap := range []*dataplane.Snapshot{entry, def} {
		if _, err := Vera(pl, VeraOptions{Snapshot: snap}); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("snapshot running an unlisted action: err = %v", err)
		}
	}
}

func TestP4VApproxFindsBug(t *testing.T) {
	pl := compileNAT(t)
	r := P4VApprox(pl)
	if !r.AnyBugReachable {
		t.Fatal("p4v-style query must find a bug in the NAT program")
	}
	if r.Model == nil {
		t.Fatal("no witness model")
	}
	if r.Duration <= 0 {
		t.Fatal("no duration recorded")
	}
}

func TestP4VApproxCleanProgram(t *testing.T) {
	src := `
header h_t { bit<8> x; }
struct headers { h_t h; }
struct metadata { bit<1> m; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply { smeta.egress_spec = 9w1; hdr.h.x = 8w5; }
}
V1Switch(P(), Ing()) main;
`
	pl, err := core.Compile(src, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := P4VApprox(pl)
	if r.AnyBugReachable {
		t.Fatal("clean program reported buggy")
	}
}

func TestVeraConcreteSnapshot(t *testing.T) {
	pl := compileNAT(t)
	// Snapshot with a sane rule: exploration must complete and find no
	// bug on this snapshot.
	snap := dataplane.NewSnapshot()
	snap.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0, 0)},
		Action: "drop_",
	})
	r, err := Vera(pl, VeraOptions{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("concrete exploration must complete")
	}
	if len(r.BugsHit) != 0 {
		t.Fatalf("sane snapshot hit bugs: %v", r.BugsHit)
	}
	if r.Paths == 0 {
		t.Fatal("no paths explored")
	}
}

func TestVeraConcreteFaultySnapshot(t *testing.T) {
	pl := compileNAT(t)
	// The paper's faulty rule makes the bug findable on this snapshot.
	snap := dataplane.NewSnapshot()
	snap.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(0), dataplane.NewTernary(0, 0xFF000000)},
		Action: "nat_hit",
		Params: []dataplane.Value{dataplane.U64(1)},
	})
	r, err := Vera(pl, VeraOptions{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("exploration must complete")
	}
	found := false
	for b := range r.BugsHit {
		if b.Bug == ir.BugInvalidKeyRead {
			found = true
		}
	}
	if !found {
		t.Fatalf("faulty snapshot's bug not found; hit %v", r.BugsHit)
	}
}

func TestVeraSymbolicFindsMore(t *testing.T) {
	pl := compileNAT(t)
	r, err := Vera(pl, VeraOptions{MaxPaths: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BugsHit) == 0 {
		t.Fatal("symbolic exploration must find the NAT bugs")
	}
	if r.Coverage() <= 0 || r.Coverage() > 1 {
		t.Fatalf("coverage = %v", r.Coverage())
	}
}

// TestVeraBudgetRepeats: the path budget is the only one, so two symbolic
// explorations of switch@1 under it take the same paths, hit the same bugs
// and visit the same nodes (a wall-clock budget stopped wherever the
// machine had got to).
func TestVeraBudgetRepeats(t *testing.T) {
	pl, err := core.Compile(progs.GenerateSwitch(1), ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	explore := func() (*VeraResult, []int) {
		r, err := Vera(pl, VeraOptions{MaxPaths: 500})
		if err != nil {
			t.Fatal(err)
		}
		var bugs []int
		for n := range r.BugsHit {
			bugs = append(bugs, n.ID)
		}
		slices.Sort(bugs)
		return r, bugs
	}
	a, bugsA := explore()
	b, bugsB := explore()
	if a.Completed || a.Paths != 500 {
		t.Fatalf("the budget did not stop the exploration: %d paths, completed %v", a.Paths, a.Completed)
	}
	if a.Paths != b.Paths || a.Visited != b.Visited || !slices.Equal(bugsA, bugsB) {
		t.Fatalf("two explorations under one budget differ: %d / %d paths, %d / %d nodes, bugs %v / %v",
			a.Paths, b.Paths, a.Visited, b.Visited, bugsA, bugsB)
	}
}

func TestVeraBudgetStopsExploration(t *testing.T) {
	pl := compileNAT(t)
	r, err := Vera(pl, VeraOptions{MaxPaths: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed {
		t.Fatal("3-path budget cannot complete the NAT program")
	}
	if r.Paths > 4 {
		t.Fatalf("explored %d paths past the budget", r.Paths)
	}
}
