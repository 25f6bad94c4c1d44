package core

import (
	"fmt"
	"strings"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/smt"
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
    state parse_ipv4 {
        pkt.extract(hdr.ipv4);
        transition accept;
    }
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
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
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

control Eg(inout headers hdr, inout metadata meta,
           inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) { apply { pkt.emit(hdr.ipv4); } }

V1Switch(P(), Ing(), Eg(), Dep()) main;
`

func compileNAT(t *testing.T) *Pipeline {
	t.Helper()
	pl, err := Compile(natSrc, ir.DefaultOptions(), true)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return pl
}

func TestFindBugsNAT(t *testing.T) {
	pl := compileNAT(t)
	rep := pl.FindBugs()
	if rep.NumReachable() == 0 {
		t.Fatal("no reachable bugs found in simple_nat-like program")
	}
	kinds := map[ir.BugKind]int{}
	for _, b := range rep.Bugs {
		if b.Reachable {
			kinds[b.Kind]++
		}
	}
	if kinds[ir.BugInvalidKeyRead] == 0 {
		t.Errorf("nat ternary key bug not reachable; kinds=%v", kinds)
	}
	if kinds[ir.BugInvalidHeaderWrite] == 0 && kinds[ir.BugInvalidHeaderRead] == 0 {
		t.Errorf("set_nhop ttl bug not reachable; kinds=%v", kinds)
	}
	if kinds[ir.BugEgressSpecNotSet] == 0 {
		t.Errorf("egress-spec bug not reachable (nat_hit path sets no egress_spec); kinds=%v", kinds)
	}

	// Every reachable bug's model must actually satisfy its reachability
	// condition (model soundness through the whole stack).
	for _, b := range rep.Bugs {
		if !b.Reachable {
			continue
		}
		if !smt.EvalBool(b.Cond, b.Model) {
			t.Errorf("bug %s: model does not satisfy reach condition", b.Description())
		}
	}
}

func TestBugInstanceAssociation(t *testing.T) {
	pl := compileNAT(t)
	rep := pl.FindBugs()
	var sawNat, sawLpm bool
	for _, b := range rep.Bugs {
		if !b.Reachable || b.Instance == nil {
			continue
		}
		switch b.Instance.Table.Name {
		case "nat":
			sawNat = true
		case "ipv4_lpm":
			sawLpm = true
		}
	}
	if !sawNat {
		t.Error("no reachable bug associated with table nat")
	}
	if !sawLpm {
		t.Error("no reachable bug associated with table ipv4_lpm")
	}
}

func TestGuardedAccessIsUnreachable(t *testing.T) {
	src := `
header h_t { bit<8> x; }
struct headers { h_t h; }
struct metadata { bit<1> m; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        transition select(smeta.ingress_port) {
            9w1: parse_h;
            default: accept;
        }
    }
    state parse_h { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        smeta.egress_spec = 9w2;
        if (hdr.h.isValid()) {
            hdr.h.x = hdr.h.x + 8w1;
        }
    }
}
V1Switch(P(), Ing()) main;
`
	pl, err := Compile(src, ir.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.FindBugs()
	for _, b := range rep.Bugs {
		if b.Reachable && (b.Kind == ir.BugInvalidHeaderRead || b.Kind == ir.BugInvalidHeaderWrite) {
			t.Errorf("guarded access reported reachable: %s", b.Description())
		}
	}
	// And the egress-spec bug must be unreachable (always set).
	for _, b := range rep.Bugs {
		if b.Reachable && b.Kind == ir.BugEgressSpecNotSet {
			t.Errorf("egress_spec is always set but bug reachable")
		}
	}
}

func TestUnguardedAccessIsReachable(t *testing.T) {
	src := `
header h_t { bit<8> x; }
struct headers { h_t h; }
struct metadata { bit<1> m; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        transition select(smeta.ingress_port) {
            9w1: parse_h;
            default: accept;
        }
    }
    state parse_h { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        smeta.egress_spec = 9w2;
        hdr.h.x = hdr.h.x + 8w1;
    }
}
V1Switch(P(), Ing()) main;
`
	pl, err := Compile(src, ir.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.FindBugs()
	found := false
	for _, b := range rep.Bugs {
		if b.Reachable && (b.Kind == ir.BugInvalidHeaderRead || b.Kind == ir.BugInvalidHeaderWrite) {
			found = true
			// The model must show the header invalid on the bug path:
			// the packet came through the default parser branch.
			if port, ok := b.Model["smeta.ingress_port"]; ok && port.Int64() == 1 {
				t.Errorf("model claims port 1 (header parsed) yet bug reached")
			}
		}
	}
	if !found {
		t.Fatal("unguarded access not reported")
	}
}

func TestSlicedAndUnslicedAgree(t *testing.T) {
	plS, err := Compile(natSrc, ir.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	plU, err := Compile(natSrc, ir.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	repS, repU := plS.FindBugs(), plU.FindBugs()
	if repS.NumReachable() != repU.NumReachable() {
		t.Fatalf("sliced %d vs unsliced %d reachable bugs", repS.NumReachable(), repU.NumReachable())
	}
	if plS.SliceStats.SliceInstructions >= plS.SliceStats.TotalInstructions {
		t.Errorf("slice did not shrink: %d of %d", plS.SliceStats.SliceInstructions, plS.SliceStats.TotalInstructions)
	}
}

func TestOKFormulaSatisfiable(t *testing.T) {
	pl := compileNAT(t)
	if pl.FullReach.OK.IsFalse() {
		t.Fatal("OK formula is trivially false")
	}
	// There must exist a good run: e.g. a non-IPv4 packet dropped by the
	// nat default drop action.
	s := newTestSolver(pl)
	if got := s.Check(pl.FullReach.OK); got.String() != "sat" {
		t.Fatalf("OK unsatisfiable: %v", got)
	}
}

func TestDescriptionsAreInformative(t *testing.T) {
	pl := compileNAT(t)
	rep := pl.FindBugs()
	for _, b := range rep.Bugs {
		d := b.Description()
		if !strings.Contains(d, "[") || len(d) < 10 {
			t.Errorf("weak description: %q", d)
		}
	}
}

// TestShardPanicReachesTheCaller: a panic inside one shard's check — here a
// reachability condition that is no boolean, which the bit-blaster refuses —
// comes up in the goroutine that asked for the checks, after the other
// shards have finished, where a caller's recover (bf4 lint's, the
// experiments') sees it. From a bare goroutine it would end the process.
func TestShardPanicReachesTheCaller(t *testing.T) {
	pl, err := Compile(natSrc, ir.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*ir.Node
	for len(nodes) < 2*checksPerShard {
		nodes = append(nodes, pl.IR.Bugs...)
	}
	bad := nodes[len(nodes)-1]
	pl.Reach.Cond[bad] = pl.IR.F.BVVar("not-a-condition", 8)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("checkNodes returned from a check that panicked")
		} else if !strings.Contains(fmt.Sprint(r), "not-a-condition") {
			t.Fatalf("recovered %v, want the bit-blaster's refusal of the bad condition", r)
		}
	}()
	pl.checkNodes(nodes, 2, nil, nil)
}
