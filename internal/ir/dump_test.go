package ir

import (
	"fmt"
	"strings"
	"testing"
)

// dumpCFG renders the reachable CFG of p as text.
func dumpCFG(p *Program) string {
	var b strings.Builder
	for _, n := range p.Topo() {
		b.WriteString(n.String())
		if len(n.Succs) > 0 {
			ids := make([]string, len(n.Succs))
			for i, s := range n.Succs {
				ids[i] = fmt.Sprintf("n%d", s.ID)
			}
			fmt.Fprintf(&b, " -> %s", strings.Join(ids, ", "))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestExpansionStructure locks the shape of a table expansion (paper
// Figure 4/5): assert point, hit branch, match assumes, key-read checks,
// action dispatch, miss default, join.
func TestExpansionStructure(t *testing.T) {
	src := `
header h_t { bit<8> f; }
struct headers { h_t h; }
struct metadata { bit<8> m; }
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
    action a(bit<8> v) { meta.m = v; smeta.egress_spec = 9w1; }
    table t {
        key = { hdr.h.f: ternary; }
        actions = { a; NoAction; }
    }
    apply { t.apply(); }
}
V1Switch(P(), Ing()) main;
`
	p := buildSrc(t, src, DefaultOptions())
	dump := dumpCFG(p)

	// Structural landmarks, in the dump. Commutative operands print in
	// content-hash canonical order (see internal/smt), so equality
	// landmarks accept either operand order.
	for _, want := range [][]string{
		{"assert-point t$0"},
		{"branch pcn_t$0.hit"}, // hit/miss split
		{"(= #x0[8] pcn_t$0.action_run)", // action dispatch on a
			"(= pcn_t$0.action_run #x0[8])"},
		{"pcn_t$0.action_run = #x1[8]"}, // miss path assigns default index
		{"bug[invalid-key-read]"},       // ternary key over conditional header
		{"meta.m = pcn_t$0.a.v"},        // action body bound to entry param
		// ternary match assume
		{"(= (bvand hdr.h.f pcn_t$0.mask0) (bvand pcn_t$0.key0 pcn_t$0.mask0))",
			"(= (bvand pcn_t$0.mask0 hdr.h.f) (bvand pcn_t$0.mask0 pcn_t$0.key0))"},
	} {
		found := false
		for _, w := range want {
			if strings.Contains(dump, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("dump lacks %q\n--- dump ---\n%s", want[0], dump)
		}
	}

	// Exactly one assert point and one join per expansion.
	if got := strings.Count(dump, "assert-point"); got != 1 {
		t.Errorf("assert points = %d, want 1", got)
	}
	inst := p.Instances[0]
	if inst.Join == nil {
		t.Fatal("instance join not recorded")
	}
	if inst.ActionRange["a"][0] == 0 && inst.ActionRange["a"][1] == 0 {
		t.Error("action range for a not recorded")
	}
	if len(inst.KeyTerms) != 1 || inst.KeyTerms[0] == nil {
		t.Error("key terms not recorded")
	}
}
