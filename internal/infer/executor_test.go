package infer

import (
	"slices"
	"testing"

	"bf4/internal/core"
	"bf4/internal/fixes"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/smt"
)

// TestExecutorMatchesReference holds the executor's one mutable path state
// to the reference executor of reference_test.go, which carries the path
// condition as a term and the bindings as a persistent list and prunes
// nothing. Over the corpus and switch@1/@2 (switch@4 outside -short), each
// as written and as rebuilt with its fixes, for every table instance
// Fast-Infer runs on and for every (t1, t2) pair the multi-table heuristic
// may execute — t1's apply dominates t2's and t1's keys are a subset of
// t2's, whether or not t2 has an uncontrolled bug — both must find the
// same controlled bug paths, as hash-consed path conditions, and forbid the
// same cubes, in the same order. Where the reference stops at its cap it
// has walked a prefix of the paths the executor walks, so its bug paths and
// cubes must be a prefix of the executor's. A conjunct set that misses a
// complement, a true side's bindings that outlive it, an uncontrolled match
// residue refused rather than dropped and a conjunct judged before
// substitution each move cubes of the corpus; pathStateSrc holds the shapes
// that catch the rest.
func TestExecutorMatchesReference(t *testing.T) {
	type testCase struct{ name, src string }
	var cases []testCase
	for _, p := range progs.All() {
		if p.Name != "switch" {
			cases = append(cases, testCase{p.Name, p.Source})
		}
	}
	cases = append(cases, testCase{"path-state", pathStateSrc},
		testCase{"switch@1", progs.GenerateSwitch(1)}, testCase{"switch@2", progs.GenerateSwitch(2)})
	if !testing.Short() {
		cases = append(cases, testCase{"switch@4", progs.GenerateSwitch(4)})
	}
	var n execCounts
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := core.Compile(c.src, ir.DefaultOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			// The program of the rebuild round too: the keys fixes adds are
			// the matches learnEq turns into bindings.
			rep := pl.FindBugs()
			fx := fixes.Run(pl, Run(pl, rep, DefaultOptions()).Uncontrolled, 0)
			prog, info, err := core.Frontend(c.src, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if info, err = fixes.Apply(prog, info, fx); err != nil {
				t.Fatalf("apply fixes: %v", err)
			}
			rebuilt, err := core.CompileWith(c.src, core.CompileOptions{IR: ir.DefaultOptions(), AST: prog, Info: info})
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			for _, pl := range []*core.Pipeline{pl, rebuilt} {
				compareExecutors(t, pl, &n)
			}
		})
	}
	t.Logf("%d executions compared, %d of them capped in the reference at %d paths; %d cubes, %d of them in capped executions",
		n.executions, n.capped, refMaxPaths, n.cubes, n.cappedCubes)
}

// pathStateSrc holds three shapes the corpus lacks. Action a branches on a
// conjunction and then on the complement of one of its conjuncts, before an
// invalid-header write: the inner true side is infeasible, and only a path
// state that holds a conjunction's conjuncts one by one sees that before the
// bug, while the else side is a controlled bug. The default action b writes
// an invalid header too, so a miss is a bug: Fast-Infer's miss cube. Table
// u, keyed like t, has the same default, so t's paths followed by a miss of
// u are linked bug paths that hold ¬hit: no multi-table cube may come of
// them.
const pathStateSrc = `
header h_t { bit<8> f; }
struct metadata { }
struct headers { h_t h; }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t smeta) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control Ing(inout headers hdr, inout metadata meta, inout standard_metadata_t smeta) {
    action a(bit<8> p, bit<8> q) {
        smeta.egress_spec = 9w1;
        if (p == 8w1 && q == 8w2) {
            hdr.h.setInvalid();
            if (p != 8w1) {
                hdr.h.f = 8w3;
            } else {
                hdr.h.f = 8w4;
            }
        }
    }
    action b() {
        hdr.h.setInvalid();
        hdr.h.f = 8w5;
    }
    table t { key = { hdr.h.isValid(): exact; } actions = { a; b; } default_action = b(); }
    table u { key = { hdr.h.isValid(): exact; } actions = { b; NoAction; } default_action = b(); }
    apply { t.apply(); u.apply(); }
}
control Eg(inout headers hdr, inout metadata meta, inout standard_metadata_t smeta) { apply { } }
control Dep(packet_out pkt, in headers hdr) { apply { pkt.emit(hdr.h); } }
V1Switch(P(), Ing(), Eg(), Dep()) main;
`

// execCounts tallies what compareExecutors compared.
type execCounts struct{ executions, capped, cubes, cappedCubes int }

// compareExecutors runs both executors on every Fast-Infer instance and every
// dominating, key-subset pair of pl; see TestExecutorMatchesReference.
func compareExecutors(t *testing.T, pl *core.Pipeline, n *execCounts) {
	t.Helper()
	// agree holds got to want: equal, or want a prefix of got where the
	// reference was capped.
	agree := func(got, want []*smt.Term, capped bool) bool {
		if capped {
			return len(want) <= len(got) && slices.Equal(got[:len(want)], want)
		}
		return slices.Equal(got, want)
	}
	same := func(what string, got, want *Assertion, ref *refSymbex) {
		t.Helper()
		n.executions++
		n.cubes += len(got.Forbidden)
		if ref.capped() {
			n.capped++
			n.cappedCubes += len(got.Forbidden)
		}
		if !agree(got.Forbidden, want.Forbidden, ref.capped()) {
			t.Errorf("%s: forbids %v, reference %v (capped: %v)", what, got.Forbidden, want.Forbidden, ref.capped())
		}
	}
	for _, inst := range pl.IR.Instances {
		ex := newSymbex(pl.IR, inst, controlledSet(inst), inst.Apply)
		ex.run(inst.Apply)
		want, ref := refFastInfer(pl, inst)
		var controlled []*smt.Term
		for _, pc := range ref.bugPCs {
			if ref.isControlled(pc) {
				controlled = append(controlled, pc)
			}
		}
		if !agree(ex.bugPCs, controlled, ref.capped()) {
			t.Errorf("%s: controlled bug paths %v, reference %v (capped: %v)", inst.Name(), ex.bugPCs, controlled, ref.capped())
		}
		same(inst.Name(), FastInfer(pl, inst), want, ref)
	}
	topo := pl.IR.Topo()
	for _, t2 := range pl.IR.Instances {
		for _, t1 := range pl.IR.Instances {
			if t1 == t2 || !pl.Doms.Dominates(t1.Apply, t2.Apply) || !keysSubset(t1.Table, t2.Table) {
				continue
			}
			want, ref := refFastInferLinked(pl, t1, t2)
			same(t1.Name()+" → "+t2.Name(), fastInferLinked(pl, topo, t1, t2), want, ref)
		}
	}
}
