package dataplane_test

import (
	"strings"
	"testing"

	"bf4/internal/core"
	"bf4/internal/dataplane"
	"bf4/internal/ir"
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

func compileNAT(t *testing.T) *core.Pipeline {
	t.Helper()
	pl, err := core.Compile(natSrc, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// ipv4Packet builds input values for an IPv4 packet.
func ipv4Packet(src int64, ttl int64) dataplane.Packet {
	p := dataplane.Packet{}
	p.SetField("hdr.ethernet.etherType", 0x800)
	p.SetField("hdr.ipv4.srcAddr", src)
	p.SetField("hdr.ipv4.ttl", ttl)
	return p
}

func TestSnapshotForwarding(t *testing.T) {
	pl := compileNAT(t)
	snap := dataplane.NewSnapshot()
	// nat: known connection from 10.0.0.1 (valid ipv4, exact src).
	snap.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0x0A000001, -1)},
		Action: "nat_hit",
		Params: []dataplane.Value{dataplane.U64(0x0A000099)},
	})
	// lpm: route everything to port 7.
	snap.Insert("ipv4_lpm", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0, 0)},
		Action: "set_nhop",
		Params: []dataplane.Value{dataplane.U64(0x0A0000FE), dataplane.U64(7)},
	})
	interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: ipv4Packet(0x0A000001, 64)}
	tr, err := interp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Bug() {
		t.Fatalf("unexpected bug: %d steps -> %s", len(tr.Nodes), tr.Terminal)
	}
	if tr.Terminal.Kind != ir.AcceptTerm {
		t.Fatalf("terminal = %s", tr.Terminal)
	}
	if got := tr.EgressSpec(); got != 7 {
		t.Fatalf("egress_spec = %d, want 7", got)
	}
	// TTL decremented.
	if got := tr.State["hdr.ipv4.ttl"]; got.Int64() != 63 {
		t.Fatalf("ttl = %v, want 63", got)
	}
}

func TestSnapshotMissRunsDefault(t *testing.T) {
	pl := compileNAT(t)
	snap := dataplane.NewSnapshot() // empty tables: everything misses
	interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: ipv4Packet(0x0A000001, 64)}
	tr, err := interp.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Default drop_: mark_to_drop sets egress_spec to the drop port.
	if tr.Bug() {
		t.Fatalf("unexpected bug on miss: %d steps -> %s", len(tr.Nodes), tr.Terminal)
	}
	if got := tr.EgressSpec(); got != ir.DropSpec {
		t.Fatalf("egress_spec = %d, want drop (%d)", got, ir.DropSpec)
	}
}

// TestUnlistedActionIsAnError: a snapshot whose matched entry, or whose
// runtime default, runs an action the table does not list has no branch in
// the expansion. Run used to take the table's action 0 for such an entry,
// whatever the snapshot said, and the declared default for such a default;
// no test relied on either. It is an error naming table and action.
func TestUnlistedActionIsAnError(t *testing.T) {
	pl := compileNAT(t)
	entry := dataplane.NewSnapshot()
	entry.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0x0A000001, -1)},
		Action: "bogus_action",
	})
	def := dataplane.NewSnapshot()
	def.Defaults["nat"] = &dataplane.DefaultAction{Action: "bogus_action"}
	for name, snap := range map[string]*dataplane.Snapshot{"entry": entry, "default": def} {
		_, err := (&dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: ipv4Packet(0x0A000001, 64)}).Run()
		if err == nil || !strings.Contains(err.Error(), "table nat") || !strings.Contains(err.Error(), `"bogus_action"`) {
			t.Errorf("%s running bogus_action: Run = %v, want an error naming table and action", name, err)
		}
	}
}

func TestFaultyRuleTriggersBug(t *testing.T) {
	pl := compileNAT(t)
	snap := dataplane.NewSnapshot()
	// The paper's faulty rule: isValid key = 0, nonzero ternary mask. The
	// srcAddr read is undefined for an invalid header; the interpreter
	// models it as the stale (zero) value, which this rule matches.
	snap.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(0), dataplane.NewTernary(0, 0xFF000000)},
		Action: "nat_hit",
		Params: []dataplane.Value{dataplane.U64(1)},
	})
	// A non-IPv4 packet (header invalid) matches that rule.
	p := dataplane.Packet{}
	p.SetField("hdr.ethernet.etherType", 0x806) // ARP: ipv4 stays invalid
	interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: p}
	tr, err := interp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Bug() {
		t.Fatalf("faulty rule did not trigger a bug: %d steps -> %s", len(tr.Nodes), tr.Terminal)
	}
	if tr.Terminal.Bug != ir.BugInvalidKeyRead {
		t.Fatalf("bug kind = %s, want invalid-key-read", tr.Terminal.Bug)
	}
}

// TestModelReplayReachesBug is the repository's strongest end-to-end
// check: every model the verifier produces, when executed operationally,
// must drive the dataplane to exactly the reported bug node.
func TestModelReplayReachesBug(t *testing.T) {
	pl := compileNAT(t)
	rep := pl.FindBugs()
	replayed := 0
	for _, b := range rep.Bugs {
		if !b.Reachable {
			continue
		}
		interp := &dataplane.Interp{P: pl.IR, Model: b.Model, Pass: pl.Pass}
		tr, err := interp.Run()
		if err != nil {
			t.Fatalf("replay of %s: %v", b.Description(), err)
		}
		if tr.Terminal != b.Node {
			t.Errorf("replay of %s ended at %s, want n%d", b.Description(), tr.Terminal, b.Node.ID)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("nothing replayed")
	}
}

func TestLpmLongestPrefixWins(t *testing.T) {
	pl := compileNAT(t)
	snap := dataplane.NewSnapshot()
	snap.Insert("nat", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0, 0)},
		Action: "nat_hit",
		Params: []dataplane.Value{dataplane.U64(0x0A000010)}, // nhop = 10.0.0.16
	})
	// Two lpm routes: /8 to port 1, /24 to port 2. /24 must win.
	snap.Insert("ipv4_lpm", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0x0A000000, 8)},
		Action: "set_nhop",
		Params: []dataplane.Value{dataplane.U64(1), dataplane.U64(1)},
	})
	snap.Insert("ipv4_lpm", &dataplane.Entry{
		Keys:   []dataplane.KeyMatch{dataplane.NewLpm(0x0A000000, 24)},
		Action: "set_nhop",
		Params: []dataplane.Value{dataplane.U64(2), dataplane.U64(2)},
	})
	interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: ipv4Packet(3, 64)}
	tr, err := interp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.EgressSpec(); got != 2 {
		t.Fatalf("egress_spec = %d, want 2 (longest prefix)", got)
	}
}

func TestTernaryPriority(t *testing.T) {
	pl := compileNAT(t)
	snap := dataplane.NewSnapshot()
	// Overlapping ternary rules; higher priority must win.
	snap.Insert("nat", &dataplane.Entry{
		Keys:     []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0, 0)},
		Action:   "drop_",
		Priority: 1,
	})
	snap.Insert("nat", &dataplane.Entry{
		Keys:     []dataplane.KeyMatch{dataplane.NewExact(1), dataplane.NewTernary(0, 0)},
		Action:   "nat_hit",
		Params:   []dataplane.Value{dataplane.U64(5)},
		Priority: 10,
	})
	interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: ipv4Packet(1, 64)}
	tr, err := interp.Run()
	if err != nil {
		t.Fatal(err)
	}
	nat := pl.IR.Instances[0]
	if got := tr.Matched[nat]; got != 1 {
		t.Fatalf("matched entry %d, want 1 (priority 10)", got)
	}
}

func TestNonIPv4PacketSkipsIPv4Parse(t *testing.T) {
	pl := compileNAT(t)
	snap := dataplane.NewSnapshot()
	p := dataplane.Packet{}
	p.SetField("hdr.ethernet.etherType", 0x806)
	interp := &dataplane.Interp{P: pl.IR, Snapshot: snap, Inputs: p}
	tr, err := interp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := tr.State["hdr.ipv4.$valid"]; v != nil && v.Sign() != 0 {
		t.Fatal("ipv4 header marked valid for ARP packet")
	}
}
