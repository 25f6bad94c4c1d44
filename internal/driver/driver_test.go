package driver

import (
	"strings"
	"testing"
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

func TestFullLoopOnNAT(t *testing.T) {
	res, err := Run("simple_nat", natSrc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if res.Bugs == 0 {
		t.Fatal("no bugs found")
	}
	if res.BugsAfterInfer >= res.Bugs {
		t.Fatalf("Infer controlled nothing: %d -> %d", res.Bugs, res.BugsAfterInfer)
	}
	if res.KeysAdded == 0 {
		t.Fatal("Fixes proposed no keys (expected hdr.ipv4.isValid() on ipv4_lpm)")
	}
	found := false
	for _, k := range res.Fixes.Keys["ipv4_lpm"] {
		if k == "hdr.ipv4.isValid()" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected validity key on ipv4_lpm, got %v", res.Fixes.Keys)
	}
	if res.BugsAfterFixes != 0 {
		for _, b := range res.Dataplane {
			t.Logf("remaining: %s", b.Description())
		}
		t.Fatalf("bugs after fixes = %d, want 0", res.BugsAfterFixes)
	}
}

func TestFixedSourceReparses(t *testing.T) {
	res, err := Run("simple_nat", natSrc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.FixedSource == "" {
		t.Fatal("no fixed source produced")
	}
	if !strings.Contains(res.FixedSource, "isValid()") {
		t.Fatalf("fixed source lacks the added key:\n%s", res.FixedSource)
	}
	// The fixed source must itself pass the full loop with zero keys
	// proposed beyond what's there (idempotence of the fix).
	res2, err := Run("simple_nat_fixed", res.FixedSource, DefaultConfig())
	if err != nil {
		t.Fatalf("fixed source does not compile: %v", err)
	}
	if got := res2.Fixes.Keys["ipv4_lpm"]; len(got) > 0 {
		t.Fatalf("fixed program still wants keys on ipv4_lpm: %v", got)
	}
	// Re-verifying the fixed program must come out clean: the keys and the
	// egress-spec drop are now in the source, so inference controls every
	// bug and nothing is proposed.
	if res2.KeysAdded != 0 || len(res2.Fixes.Special) != 0 || res2.BugsAfterInfer != 0 || res2.BugsAfterFixes != 0 {
		t.Fatalf("fixed source does not re-verify clean: %s\n%s", res2.Summary(), res2.Fixes.Describe())
	}
}

// twoRoundSrc needs two fix-point rounds. Round 0: t1's wr action reads
// hdr.a.f as a register index (a is conditionally parsed), so Fixes
// proposes hdr.a.f (the OOB bug's determining variable) and
// hdr.a.isValid() (the invalid-read bug) on t1. Meanwhile t2's read of
// hdr.b.g is controlled WITHOUT keys by the multi-table heuristic: t1
// dominates t2, shares the meta.m key, and b is valid unless t1 hit the
// nop_ entry — forbidding (e1.act = nop_, e2.act = rd) rule pairs
// suffices. Round 1's rebuild gives t1 two extra keys, which breaks the
// keys-subset condition of the heuristic, so t2's bug resurfaces
// uncontrolled and only then does Fixes propose hdr.b.isValid() on t2 —
// a second round. Round 2 re-verifies clean.
const twoRoundSrc = `
header a_t { bit<8> f; }
header b_t { bit<8> g; }
struct headers { a_t a; b_t b; }
struct metadata { bit<8> m; bit<8> x; }

parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        transition select(smeta.ingress_port) {
            9w1: parse_a;
            default: accept;
        }
    }
    state parse_a { pkt.extract(hdr.a); transition accept; }
}

control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    register<bit<8>>(16) reg;
    action nop_() { }
    action init_() {
        hdr.b.setValid();
        hdr.b.g = 8w0;
    }
    action wr() {
        hdr.b.setValid();
        hdr.b.g = 8w0;
        reg.write(hdr.a.f, 8w1);
    }
    action rd() { meta.x = hdr.b.g; }
    table t1 {
        key = { meta.m: exact; }
        actions = { wr; nop_; }
        default_action = init_();
    }
    table t2 {
        key = { meta.m: exact; }
        actions = { rd; nop_; }
        default_action = nop_();
    }
    apply {
        smeta.egress_spec = 9w1;
        t1.apply();
        t2.apply();
    }
}

control Eg(inout headers hdr, inout metadata meta,
           inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) {
    apply { pkt.emit(hdr.a); pkt.emit(hdr.b); }
}

V1Switch(P(), Ing(), Eg(), Dep()) main;
`

func TestFixPointNeedsTwoRounds(t *testing.T) {
	res, err := Run("two_round", twoRoundSrc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	t.Logf("fixes:\n%s", res.Fixes.Describe())
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want >= 2 (keys per round: %v)", res.Rounds, res.Fixes.Keys)
	}
	wantT1 := map[string]bool{"hdr.a.f": true, "hdr.a.isValid()": true}
	for _, k := range res.Fixes.Keys["t1"] {
		delete(wantT1, k)
	}
	if len(wantT1) > 0 {
		t.Errorf("t1 missing proposed keys %v (got %v)", wantT1, res.Fixes.Keys["t1"])
	}
	found := false
	for _, k := range res.Fixes.Keys["t2"] {
		if k == "hdr.b.isValid()" {
			found = true
		}
	}
	if !found {
		t.Errorf("t2 never got hdr.b.isValid() (got %v)", res.Fixes.Keys["t2"])
	}
	if res.BugsAfterFixes != 0 {
		for _, b := range res.Dataplane {
			t.Logf("remaining: %s", b.Description())
		}
		t.Errorf("bugs after fixes = %d, want 0", res.BugsAfterFixes)
	}
	// The two-round fix must survive the source rewrite round-trip.
	if res.FixedSource == "" {
		t.Fatal("no fixed source produced")
	}
	res2, err := Run("two_round_fixed", res.FixedSource, DefaultConfig())
	if err != nil {
		t.Fatalf("fixed source does not compile: %v", err)
	}
	if res2.KeysAdded != 0 || res2.BugsAfterFixes != 0 {
		t.Fatalf("fixed source does not re-verify clean: %s", res2.Summary())
	}
}

func TestFixPointEarlyExitOnDataplaneBug(t *testing.T) {
	// One fixable bug (t's rd reads conditionally-parsed hdr.h) plus one
	// genuinely unfixable bug (the apply block reads conditionally-parsed
	// hdr.g outside any table's expansion). The loop must run exactly one
	// round: the fix controls t's bug, no new keys appear for the
	// dataplane bug, and the newKeys == 0 early exit fires well before
	// maxRounds.
	src := `
header h_t { bit<8> x; }
header g_t { bit<8> y; }
struct headers { h_t h; g_t g; }
struct metadata { bit<8> m; bit<8> x; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        transition select(smeta.ingress_port) {
            9w1: parse_h;
            9w2: parse_g;
            default: accept;
        }
    }
    state parse_h { pkt.extract(hdr.h); transition accept; }
    state parse_g { pkt.extract(hdr.g); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    action nop_() { }
    action rd() { meta.x = hdr.h.x; }
    table t {
        key = { meta.m: exact; }
        actions = { rd; nop_; }
        default_action = nop_();
    }
    apply {
        smeta.egress_spec = 9w1;
        t.apply();
        if (hdr.g.y == 8w1) {
            smeta.egress_spec = 9w2;
        }
    }
}
control Eg(inout headers hdr, inout metadata meta,
           inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) {
    apply { pkt.emit(hdr.h); pkt.emit(hdr.g); }
}
V1Switch(P(), Ing(), Eg(), Dep()) main;
`
	res, err := Run("early_exit", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if res.KeysAdded == 0 {
		t.Fatal("fixable bug proposed no keys")
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want exactly 1 (newKeys == 0 early exit)", res.Rounds)
	}
	if res.BugsAfterFixes == 0 {
		t.Fatal("dataplane bug wrongly eliminated")
	}
}

func TestDataplaneBugSurvivesFixes(t *testing.T) {
	// mplb_router-style bug: reading a header inside an if condition with
	// no prior table able to rescue it — must be reported as a dataplane
	// bug after fixes.
	src := `
header tcp_t { bit<16> srcPort; bit<16> dstPort; }
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
        if (hdr.tcp.dstPort == 16w80) {
            smeta.egress_spec = 9w2;
        }
    }
}
V1Switch(P(), Ing()) main;
`
	res, err := Run("mplb_like", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bugs == 0 {
		t.Fatal("tcp read bug not found")
	}
	if res.BugsAfterFixes == 0 {
		t.Fatal("dataplane bug wrongly eliminated (no table can control it)")
	}
}

func TestEgressSpecSpecialFix(t *testing.T) {
	src := `
header h_t { bit<8> x; }
struct headers { h_t h; }
struct metadata { bit<1> m; bit<8> m2; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    action setm(bit<8> v) { meta.m2 = v; }
    table t {
        key = { hdr.h.x: exact; }
        actions = { setm; }
        default_action = setm(8w0);
    }
    apply {
        t.apply();
        if (meta.m2 == 8w1) {
            smeta.egress_spec = 9w1;
        }
    }
}
V1Switch(P(), Ing()) main;
`
	res, err := Run("egress_spec", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bugs == 0 {
		t.Fatal("egress-spec bug not found")
	}
	if len(res.Fixes.Special) == 0 {
		t.Fatal("no special suggestion for egress-spec bug")
	}
	if res.BugsAfterFixes != 0 {
		for _, b := range res.Dataplane {
			t.Logf("remaining: %s", b.Description())
		}
		t.Fatalf("egress-spec special fix did not eliminate the bug: %d remain", res.BugsAfterFixes)
	}
}

func TestCleanProgramNeedsNothing(t *testing.T) {
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
    apply {
        smeta.egress_spec = 9w1;
        if (hdr.h.isValid()) {
            hdr.h.x = 8w5;
        }
    }
}
V1Switch(P(), Ing()) main;
`
	res, err := Run("clean", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bugs != 0 || res.KeysAdded != 0 || res.BugsAfterFixes != 0 {
		t.Fatalf("clean program reported: %s", res.Summary())
	}
}
