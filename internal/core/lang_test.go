package core

import (
	"testing"

	"bf4/internal/ir"
)

// compileSrc compiles and finds bugs in one source.
func compileSrc(t *testing.T, src string) (*Pipeline, *Report) {
	t.Helper()
	pl, err := Compile(src, ir.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return pl, pl.FindBugs()
}

// TestExitSkipsFollowingBug: exit in an action ends ingress processing, so
// a bug after the exit point on that path must be unreachable on it.
func TestExitSkipsFollowingBug(t *testing.T) {
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
        smeta.egress_spec = 9w1;
        if (!hdr.h.isValid()) {
            exit;
        }
        hdr.h.x = hdr.h.x + 8w1;
    }
}
V1Switch(P(), Ing()) main;
`
	_, rep := compileSrc(t, src)
	for _, b := range rep.Bugs {
		if b.Reachable && (b.Kind == ir.BugInvalidHeaderRead || b.Kind == ir.BugInvalidHeaderWrite) {
			t.Fatalf("exit-guarded access reported reachable: %s", b.Description())
		}
	}
}

// TestStackOpsReachability: pop on a possibly-empty stack is reachable;
// push within capacity is not.
func TestStackOpsReachability(t *testing.T) {
	src := `
header tag_t { bit<16> v; }
struct headers { tag_t[3] tags; }
struct metadata { bit<1> m; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        transition select(smeta.ingress_port) {
            9w1: parse_one;
            default: accept;
        }
    }
    state parse_one { pkt.extract(hdr.tags.next); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        smeta.egress_spec = 9w1;
        hdr.tags.pop_front(1);
    }
}
V1Switch(P(), Ing()) main;
`
	_, rep := compileSrc(t, src)
	foundUnderflow := false
	for _, b := range rep.Bugs {
		if b.Kind == ir.BugStackUnderflow && b.Reachable {
			foundUnderflow = true
			// Replayable.
			if _, err := rep.Pipeline.Counterexample(b); err != nil {
				t.Fatalf("underflow not replayable: %v", err)
			}
		}
		if b.Kind == ir.BugStackOverflow && b.Reachable {
			t.Fatalf("overflow reported despite capacity 3 and one extract")
		}
	}
	if !foundUnderflow {
		t.Fatal("pop_front on possibly-empty stack not reported")
	}
}

// TestTernaryExprLowering: the ?: operator must verify correctly.
func TestTernaryExprLowering(t *testing.T) {
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
    apply {
        meta.m = (hdr.h.x > 8w10) ? 8w1 : 8w2;
        smeta.egress_spec = (meta.m == 8w1) ? 9w5 : 9w6;
    }
}
V1Switch(P(), Ing()) main;
`
	_, rep := compileSrc(t, src)
	if rep.NumReachable() != 0 {
		for _, b := range rep.Bugs {
			if b.Reachable {
				t.Errorf("unexpected bug: %s", b.Description())
			}
		}
	}
}

// TestConcatAndShifts: wide-expression plumbing end to end.
func TestConcatAndShifts(t *testing.T) {
	src := `
header h_t { bit<8> a; bit<8> b; }
struct headers { h_t h; }
struct metadata { bit<16> m; }
parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        meta.m = hdr.h.a ++ hdr.h.b;
        meta.m = meta.m << 2;
        meta.m = meta.m >> 1;
        if (meta.m == 16w0) {
            smeta.egress_spec = 9w1;
        } else {
            smeta.egress_spec = 9w2;
        }
    }
}
V1Switch(P(), Ing()) main;
`
	_, rep := compileSrc(t, src)
	if rep.NumReachable() != 0 {
		t.Fatalf("clean program reported %d bugs", rep.NumReachable())
	}
}

// TestRegisterBoundedIndexUnreachable: an index arithmetically bounded
// below the register size must not report OOB.
func TestRegisterBoundedIndexUnreachable(t *testing.T) {
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
    register<bit<8>>(256) reg;
    apply {
        smeta.egress_spec = 9w1;
        reg.write((bit<32>)hdr.h.x, hdr.h.x);
    }
}
V1Switch(P(), Ing()) main;
`
	_, rep := compileSrc(t, src)
	for _, b := range rep.Bugs {
		if b.Reachable && b.Kind == ir.BugRegisterOOB {
			t.Fatalf("8-bit index into 256-slot register reported OOB")
		}
	}
}
