package ir

import (
	"fmt"
	"strings"
	"testing"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
)

// buildSrc parses, checks and lowers a P4 source.
func buildSrc(t *testing.T, src string, opts Options) *Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	p, err := Build(prog, info, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

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
        hdr.ipv4.srcAddr = a;
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

func TestBuildNAT(t *testing.T) {
	p := buildSrc(t, natSrc, DefaultOptions())

	if len(p.Instances) != 2 {
		t.Fatalf("instances = %d, want 2", len(p.Instances))
	}
	if p.Instances[0].Table.Name != "nat" || p.Instances[1].Table.Name != "ipv4_lpm" {
		t.Fatalf("instance order: %s, %s", p.Instances[0].Table.Name, p.Instances[1].Table.Name)
	}
	if len(p.Bugs) == 0 {
		t.Fatal("no bug nodes instrumented")
	}
	kinds := map[BugKind]int{}
	for _, bug := range p.Bugs {
		kinds[bug.Bug]++
	}
	if kinds[BugInvalidKeyRead] == 0 {
		t.Errorf("missing invalid-key-read bug (nat ternary key); kinds: %v", kinds)
	}
	if kinds[BugInvalidHeaderRead] == 0 && kinds[BugInvalidHeaderWrite] == 0 {
		t.Errorf("missing header validity bug (set_nhop ttl); kinds: %v", kinds)
	}
	if kinds[BugEgressSpecNotSet] == 0 {
		t.Errorf("missing egress-spec bug; kinds: %v", kinds)
	}
	// Topo must work (acyclicity) and cover the start node.
	order := p.Topo()
	if order[0] != p.Start {
		t.Fatal("topo does not start at Start")
	}
	// Dump sanity.
	d := p.Dump()
	if !strings.Contains(d, "assert-point nat$0") {
		t.Errorf("dump lacks nat assert point:\n%s", d)
	}
}

func TestNATVars(t *testing.T) {
	p := buildSrc(t, natSrc, DefaultOptions())
	for _, name := range []string{
		"hdr.ipv4.ttl", "hdr.ipv4.$valid", "hdr.ethernet.etherType",
		"meta.meta.do_forward", "smeta.egress_spec", "$egress_spec_set",
		"pcn_nat$0.hit", "pcn_nat$0.action_run", "pcn_nat$0.key0",
		"pcn_nat$0.key1", "pcn_nat$0.mask1", "pcn_nat$0.nat_hit.a",
		"pcn_ipv4_lpm$0.key0", "pcn_ipv4_lpm$0.mask0",
	} {
		if p.Vars[name] == nil {
			t.Errorf("variable %s not declared", name)
		}
	}
	// Control variable classification.
	if !p.Vars["pcn_nat$0.hit"].IsControl {
		t.Error("pcn_nat$0.hit must be a control variable")
	}
	if p.Vars["hdr.ipv4.ttl"].IsControl {
		t.Error("hdr.ipv4.ttl must not be a control variable")
	}
	cv := p.ControlVars()
	if len(cv) < 8 {
		t.Errorf("control vars = %d, want >= 8", len(cv))
	}
}

func TestHeaderCopyInstrumentation(t *testing.T) {
	src := `
header h_t { bit<8> a; bit<8> b; }
struct headers { h_t outer; h_t inner; }
struct metadata { bit<1> x; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.outer); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        smeta.egress_spec = 9w1;
        hdr.inner = hdr.outer;
    }
}
V1Switch(P(), Ing()) main;
`
	p := buildSrc(t, src, DefaultOptions())
	var overwrite, dontcare int
	for _, n := range p.Nodes {
		if n.Kind == BugTerm && n.Bug == BugHeaderOverwrite {
			overwrite++
		}
		if n.Kind == DontCare {
			dontcare++
		}
	}
	if overwrite != 1 || dontcare != 1 {
		t.Fatalf("overwrite=%d dontcare=%d, want 1/1", overwrite, dontcare)
	}
}

func TestParserUnrollingTerminates(t *testing.T) {
	src := `
header vlan_t { bit<16> tci; }
struct headers { vlan_t[3] vlan; }
struct metadata { bit<1> x; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.vlan.next);
        transition select(hdr.vlan.last.tci) {
            16w1: start;
            default: accept;
        }
    }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply { smeta.egress_spec = 9w1; }
}
V1Switch(P(), Ing()) main;
`
	p := buildSrc(t, src, DefaultOptions())
	p.Topo() // must not panic (acyclic)
	var overflow int
	for _, n := range p.Nodes {
		if n.Kind == BugTerm && n.Bug == BugStackOverflow {
			overflow++
		}
	}
	if overflow == 0 {
		t.Fatal("expected stack-overflow bug nodes from unrolled extract")
	}
}

func TestRegisterBounds(t *testing.T) {
	src := `
header h_t { bit<32> x; }
struct headers { h_t h; }
struct metadata { bit<32> idx; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    register<bit<32>>(16) reg;
    apply {
        smeta.egress_spec = 9w1;
        reg.write(meta.idx, hdr.h.x);
        reg.read(meta.idx, meta.idx);
    }
}
V1Switch(P(), Ing()) main;
`
	p := buildSrc(t, src, DefaultOptions())
	var oob int
	for _, n := range p.Nodes {
		if n.Kind == BugTerm && n.Bug == BugRegisterOOB {
			oob++
		}
	}
	if oob != 2 {
		t.Fatalf("register OOB bugs = %d, want 2", oob)
	}
	if p.Registers["reg"] == nil || p.Registers["reg"].Size != 16 {
		t.Fatal("register metadata missing")
	}
}

// TestConstFoldsAtDeclaredWidth: a const's initializer is computed as P4
// computes it. Typed operands wrap at their width: (8w200 + 8w100) is 44
// before the shift, so C is 22, not (200 + 100) >> 1 = 150. An int
// expression (unsized literals and consts) is computed exactly and then
// cast to the width it meets: the declared width, or a typed operand's.
// A const of no bit type is 32 bits wide.
func TestConstFoldsAtDeclaredWidth(t *testing.T) {
	src := `
const bit<8> C = (8w200 + 8w100) >> 1;
const int U = 70000;
const bit<48> S = 1 << 40;
const bit<64> M = (1 << 48) - 1;
const bit<8> H = 300 >> 1;
const bit<48> X = (1 << 40) | 48w1;
const int K = 1 << 40;
const bit<48> D = K << 2;
struct headers { }
struct metadata { bit<8> c; bit<32> u; bit<48> s; bit<64> m; bit<8> h; bit<48> x; bit<48> k; bit<48> d; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start { transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        smeta.egress_spec = 9w1;
        meta.c = C;
        meta.u = U;
        meta.s = S;
        meta.m = M;
        meta.h = H;
        meta.x = X;
        meta.k = K;
        meta.d = D;
    }
}
V1Switch(P(), Ing()) main;
`
	p := buildSrc(t, src, DefaultOptions())
	want := map[string]struct {
		val   int64
		width int
	}{
		"meta.c": {22, 8}, "meta.u": {70000, 32}, "meta.s": {1 << 40, 48},
		"meta.m": {1<<48 - 1, 64}, "meta.h": {150, 8}, "meta.x": {1<<40 | 1, 48},
		"meta.k": {1 << 40, 48}, "meta.d": {1 << 42, 48},
	}
	seen := 0
	for _, n := range p.Nodes {
		if n.Kind != Assign || !n.Pos.IsValid() { // the zeroing of metadata has no position
			continue
		}
		w, ok := want[n.Var.Name]
		if !ok {
			continue
		}
		seen++
		if !n.Expr.IsConst() || n.Expr.Const().Int64() != w.val || n.Expr.Sort().Width != w.width {
			t.Errorf("%s = %s, want the %d-bit constant %d", n.Var.Name, n.Expr, w.width, w.val)
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of the %d assignments", seen, len(want))
	}
}

// TestConstChainLowersOnce: each const is lowered once however often it
// is named, sized or not. Lowering every use anew would take 2^64
// lowerings here.
func TestConstChainLowersOnce(t *testing.T) {
	for _, typ := range []string{"bit<8>", "int"} {
		var decls strings.Builder
		fmt.Fprintf(&decls, "const %s C0 = 3;\n", typ)
		for k := 1; k <= 64; k++ {
			fmt.Fprintf(&decls, "const %s C%d = C%d + C%d;\n", typ, k, k-1, k-1)
		}
		src := decls.String() + `
struct headers { }
struct metadata { bit<8> x; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start { transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        smeta.egress_spec = 9w1;
        meta.x = C7 + C64;
    }
}
V1Switch(P(), Ing()) main;
`
		p := buildSrc(t, src, DefaultOptions())
		found := false
		for _, n := range p.Nodes {
			// C7 + C64 = 3·2^7 + 3·2^64, which is 128 mod 2^8.
			if n.Kind == Assign && n.Pos.IsValid() && n.Var.Name == "meta.x" {
				found = true
				if !n.Expr.IsConst() || n.Expr.Const().Int64() != 128 {
					t.Errorf("%s chain: meta.x = %s, want 128", typ, n.Expr)
				}
			}
		}
		if !found {
			t.Errorf("%s chain: no assignment to meta.x", typ)
		}
	}
}

func TestSwitchLowering(t *testing.T) {
	src := `
header h_t { bit<8> x; }
struct headers { h_t h; }
struct metadata { bit<8> m; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    action a1() { meta.m = 8w1; }
    action a2() { meta.m = 8w2; }
    table t {
        key = { meta.m: exact; }
        actions = { a1; a2; }
    }
    apply {
        smeta.egress_spec = 9w1;
        switch (t.apply().action_run) {
            a1: { meta.m = 8w10; }
            default: { meta.m = 8w20; }
        }
    }
}
V1Switch(P(), Ing()) main;
`
	p := buildSrc(t, src, DefaultOptions())
	if len(p.Instances) != 1 {
		t.Fatalf("instances = %d, want 1", len(p.Instances))
	}
	p.Topo()
}

func TestNumInstructionsNonTrivial(t *testing.T) {
	p := buildSrc(t, natSrc, DefaultOptions())
	if n := p.NumInstructions(); n < 30 {
		t.Fatalf("NumInstructions = %d, suspiciously small", n)
	}
}

func TestDefaultActionIndexing(t *testing.T) {
	p := buildSrc(t, natSrc, DefaultOptions())
	nat := p.Instances[0]
	if nat.ActIndex["drop_"] != 0 || nat.ActIndex["nat_hit"] != 1 {
		t.Fatalf("ActIndex: %v", nat.ActIndex)
	}
	if len(nat.ParamVars["nat_hit"]) != 1 {
		t.Fatalf("nat_hit params: %v", nat.ParamVars["nat_hit"])
	}
}

var sinkDump string

func BenchmarkBuildNAT(b *testing.B) {
	prog, err := parser.Parse(natSrc)
	if err != nil {
		b.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Build(prog, info, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		_ = p
	}
}

// Ensure ast import is used even if assertions above change.
var _ = ast.PathString
