package fixes

import (
	"strings"
	"testing"

	"bf4/internal/core"
	"bf4/internal/infer"
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

func uncontrolledBugs(t *testing.T, src string) (*core.Pipeline, []*core.Bug) {
	t.Helper()
	pl, err := core.Compile(src, ir.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.FindBugs()
	res := infer.Run(pl, rep, infer.DefaultOptions())
	return pl, res.Uncontrolled
}

func TestRunProposesValidityKey(t *testing.T) {
	pl, unc := uncontrolledBugs(t, natSrc)
	if len(unc) == 0 {
		t.Fatal("expected uncontrolled bugs")
	}
	res := Run(pl, unc, 2)
	keys := res.Keys["ipv4_lpm"]
	found := false
	for _, k := range keys {
		if k == "hdr.ipv4.isValid()" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ipv4_lpm keys = %v, want hdr.ipv4.isValid()", keys)
	}
	if res.TotalKeys() != len(keys) || res.TablesTouched() != 1 {
		t.Fatalf("totals wrong: %d keys, %d tables", res.TotalKeys(), res.TablesTouched())
	}
}

func TestEgressSpecSpecialCase(t *testing.T) {
	pl, unc := uncontrolledBugs(t, natSrc)
	res := Run(pl, unc, 2)
	if len(res.Special) == 0 {
		t.Fatal("expected the egress-spec suggestion")
	}
	if !strings.Contains(res.Special[0], "egress_spec") {
		t.Fatalf("suggestion text: %q", res.Special[0])
	}
	// Egress-spec bugs never produce keys.
	for table, ks := range res.Keys {
		for _, k := range ks {
			if strings.Contains(k, "egress_spec") {
				t.Fatalf("egress_spec leaked into keys of %s: %v", table, ks)
			}
		}
	}
}

func TestDescribeMentionsEverything(t *testing.T) {
	pl, unc := uncontrolledBugs(t, natSrc)
	res := Run(pl, unc, 2)
	d := res.Describe()
	if !strings.Contains(d, "ipv4_lpm") || !strings.Contains(d, "suggestion:") {
		t.Fatalf("Describe() = %q", d)
	}
}

func TestUnfixableDataplaneBug(t *testing.T) {
	src := `
header tcp_t { bit<16> dstPort; bit<8> flags; }
struct headers { tcp_t tcp; }
struct metadata { bit<1> m; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        transition select(smeta.ingress_port) {
            9w1: parse_tcp;
            default: accept;
        }
    }
    state parse_tcp { pkt.extract(hdr.tcp); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        smeta.egress_spec = 9w1;
        if (hdr.tcp.flags == 8w2) {
            smeta.egress_spec = 9w2;
        }
    }
}
V1Switch(P(), Ing()) main;
`
	pl, unc := uncontrolledBugs(t, src)
	if len(unc) == 0 {
		t.Fatal("expected an uncontrolled bug")
	}
	res := Run(pl, unc, 2)
	if len(res.Unfixable) == 0 {
		t.Fatal("dataplane bug (no dominating table) must be unfixable")
	}
	if res.TotalKeys() != 0 {
		t.Fatalf("no keys should be proposed, got %v", res.Keys)
	}
}

func TestTableKeysKillSet(t *testing.T) {
	// The paper's example: x is rewritten after the assert point, so the
	// needed keys are the variables feeding the rewrite, not x itself.
	src := `
header h_t { bit<8> y; bit<8> z; }
struct headers { h_t h; }
struct metadata { bit<8> x; }
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
    action act() {
        meta.x = 8w3;
    }
    table t {
        key = { smeta.ingress_port: exact; }
        actions = { act; NoAction; }
    }
    apply {
        smeta.egress_spec = 9w1;
        t.apply();
        if (hdr.h.y == 8w0) { meta.x = 8w3; } else { meta.x = hdr.h.z; }
        if (meta.x == 8w10) {
            hdr.h.y = 8w1;
        }
    }
}
V1Switch(P(), Ing()) main;
`
	pl, unc := uncontrolledBugs(t, src)
	res := Run(pl, unc, 2)
	keys := res.Keys["t"]
	joined := strings.Join(keys, ",")
	// x itself must not be a key (killed); its inputs y/z (via the h
	// header reads) and the validity bit drive the bug.
	if strings.Contains(joined, "meta.x") {
		t.Fatalf("killed variable proposed as key: %v", keys)
	}
	if len(keys) == 0 {
		t.Fatalf("expected keys on t, got none (uncontrolled=%d)", len(unc))
	}
}
