package driver_test

import (
	"testing"

	"bf4/internal/driver"
)

// guardSrc is a program every one of whose instrumented checks the
// static analysis can discharge: the parser always extracts ethernet,
// the only header access is guarded by isValid(), the deparser emit is
// likewise guarded, and egress_spec is set unconditionally.
const guardSrc = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct metadata { }
struct headers { ethernet_t ethernet; }

parser P(packet_in pkt, out headers hdr, inout metadata meta,
         inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition accept;
    }
}

control Ing(inout headers hdr, inout metadata meta,
            inout standard_metadata_t smeta) {
    apply {
        if (hdr.ethernet.isValid()) {
            hdr.ethernet.dst = 48w1;
        }
        smeta.egress_spec = 9w1;
    }
}

control Eg(inout headers hdr, inout metadata meta,
           inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) { apply { pkt.emit(hdr.ethernet); } }

V1Switch(P(), Ing(), Eg(), Dep()) main;
`

// TestDischargeOnlyProgramVerifiesIdentically: on a program whose safety
// is entirely provable by the dataflow layer, the pre-pass retires every
// check, the solver sees no query at all, and the discharged bugs are
// still reported — unreachable, never dropped. (That a discharged
// condition really is unsatisfiable is TestVerdictsMatchReferenceSolver's
// job, on the whole corpus.)
func TestDischargeOnlyProgramVerifiesIdentically(t *testing.T) {
	res, err := driver.Run("guard", guardSrc, driver.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Analysis.Stats
	if st.Discharged == 0 {
		t.Fatalf("expected the pre-pass to discharge checks on the guard program, got 0 of %d", st.BugChecks)
	}
	if res.Bugs != 0 {
		t.Fatalf("guard program must be bug-free, got %d reachable bugs", res.Bugs)
	}
	if st.Discharged != st.BugChecks {
		t.Fatalf("expected every check discharged, got %d of %d", st.Discharged, st.BugChecks)
	}
	if res.InitialRep.Checks != 0 {
		t.Fatalf("everything was discharged yet the solver still saw %d queries", res.InitialRep.Checks)
	}

	// Discharged bugs must be reported unreachable, never dropped. WP
	// constant folding may resolve some of them to false on its own (they
	// then carry Discharged=false, having needed no query either way), so
	// the report-level count is bounded by the analysis-level one.
	var discharged int
	for _, b := range res.InitialRep.Bugs {
		if b.Discharged {
			discharged++
			if b.Reachable {
				t.Errorf("discharged bug %s reported reachable", b.Description())
			}
		}
	}
	if discharged > st.Discharged {
		t.Errorf("report carries %d discharged bugs, stats say only %d", discharged, st.Discharged)
	}
	if len(res.InitialRep.Bugs) == 0 {
		t.Error("report dropped the discharged bugs")
	}
}
