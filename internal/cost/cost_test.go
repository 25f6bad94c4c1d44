package cost

import (
	"testing"

	"bf4/internal/ir"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
)

const twoTableSrc = `
header h_t { bit<8> x; }
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
    action a1() { meta.m = 8w1; }
    action a2() { hdr.h.x = hdr.h.x + 8w1; smeta.egress_spec = 9w1; }
    table t1 {
        key = { smeta.ingress_port: exact; }
        actions = { a1; NoAction; }
    }
    table t2 {
        key = { meta.m: exact; }
        actions = { a2; NoAction; }
    }
    apply {
        t1.apply();
        t2.apply();
    }
}
V1Switch(P(), Ing()) main;
`

func build(t *testing.T, src string, opts ir.Options) *ir.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOriginalStagesCountTables(t *testing.T) {
	p := build(t, twoTableSrc, ir.DefaultOptions())
	s := Estimate(p)
	if s.Original != 2 {
		t.Fatalf("Original = %d, want 2 (two chained tables)", s.Original)
	}
	if s.WithKeys != s.Original {
		t.Fatalf("key fixes must not add stages: %d vs %d", s.WithKeys, s.Original)
	}
}

func TestGuardsIncreaseStages(t *testing.T) {
	p := build(t, twoTableSrc, ir.DefaultOptions())
	s := Estimate(p)
	// a2 touches hdr.h (conditionally valid) and there is an egress-spec
	// check, so guard lowering needs strictly more stages.
	if s.WithGuards <= s.Original {
		t.Fatalf("guards = %d, original = %d; guard instrumentation must cost stages",
			s.WithGuards, s.Original)
	}
}

func TestSynthesizedKeyBits(t *testing.T) {
	opts := ir.DefaultOptions()
	opts.ExtraKeys = map[string][]string{"t2": {"hdr.h.isValid()"}}
	p := build(t, twoTableSrc, opts)
	s := Estimate(p)
	if s.ExtraMatchBits != 1 {
		t.Fatalf("ExtraMatchBits = %d, want 1 (one validity bit)", s.ExtraMatchBits)
	}
	if s.TotalKeyBits < s.ExtraMatchBits {
		t.Fatalf("TotalKeyBits = %d < extra", s.TotalKeyBits)
	}
}
