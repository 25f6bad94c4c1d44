package infer

import (
	"fmt"
	"reflect"
	"testing"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/progs"
	"bf4/internal/smt"
	"bf4/internal/solver"
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

func compileAndFind(t *testing.T, src string) (*core.Pipeline, *core.Report) {
	t.Helper()
	pl, err := core.Compile(src, ir.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return pl, pl.FindBugs()
}

func findInstance(pl *core.Pipeline, table string) *ir.TableInstance {
	for _, inst := range pl.IR.Instances {
		if inst.Table.Name == table {
			return inst
		}
	}
	return nil
}

func TestFastInferControlsNATKeyBug(t *testing.T) {
	pl, _ := compileAndFind(t, natSrc)
	nat := findInstance(pl, "nat")
	a := FastInfer(pl, nat)
	if a == nil || len(a.Forbidden) == 0 {
		t.Fatal("Fast-Infer produced no assertion for nat")
	}
	// The forbidden shape must reject the paper's faulty rule
	// (isValid key = 0, nonzero srcAddr mask) and accept sane rules.
	f := pl.IR.F
	faulty := smt.Env{}
	faulty.SetBool(nat.HitVar.Name, true)
	faulty.SetUint64(nat.KeyVars[0].Name, 0) // entry expects invalid ipv4
	faulty.SetUint64(nat.MaskVars[1].Name, 0xFF000000)
	blockedFaulty := false
	for _, forb := range a.Forbidden {
		if smt.EvalBool(forb, faulty) {
			blockedFaulty = true
		}
	}
	if !blockedFaulty {
		t.Fatalf("faulty rule not blocked; forbidden=%v", a.Forbidden)
	}
	sane := smt.Env{}
	sane.SetBool(nat.HitVar.Name, true)
	sane.SetUint64(nat.KeyVars[0].Name, 1) // valid ipv4 expected
	sane.SetUint64(nat.MaskVars[1].Name, 0xFF000000)
	for _, forb := range a.Forbidden {
		if smt.EvalBool(forb, sane) {
			t.Fatalf("sane rule blocked by %s", forb)
		}
	}
	_ = f
}

func TestRunReducesReachableBugs(t *testing.T) {
	pl, rep := compileAndFind(t, natSrc)
	before := rep.NumReachable()
	res := Run(pl, rep, DefaultOptions())
	after := len(res.Uncontrolled)
	if after >= before {
		t.Fatalf("inference controlled nothing: before=%d after=%d", before, after)
	}
	// The invalid-key-read bug must be controlled.
	for _, b := range res.Uncontrolled {
		if b.Kind == ir.BugInvalidKeyRead {
			t.Errorf("key-read bug still uncontrolled: %s", b.Description())
		}
	}
	// The set_nhop ttl bug cannot be controlled without new keys: it must
	// remain (it is the paper's motivating case for Fixes).
	foundTTL := false
	for _, b := range res.Uncontrolled {
		if (b.Kind == ir.BugInvalidHeaderWrite || b.Kind == ir.BugInvalidHeaderRead) &&
			b.Instance != nil && b.Instance.Table.Name == "ipv4_lpm" {
			foundTTL = true
		}
	}
	if !foundTTL {
		t.Error("ttl bug unexpectedly controlled without added keys")
	}
}

// TestInferNeverRemovesGoodRuns is the paper's Theorem 7.2 invariant:
// OK ⊨ φ — the inferred predicate is implied by every good run.
func TestInferNeverRemovesGoodRuns(t *testing.T) {
	pl, rep := compileAndFind(t, natSrc)
	res := Run(pl, rep, DefaultOptions())
	f := pl.IR.F
	pred := combinedPredicate(f, res)
	ok := f.And(pl.FullReach.OK, f.Not(pl.FullReach.DontCareReach))
	s := solver.New()
	// OK ∧ ¬φ must be unsatisfiable.
	s.Assert(f.And(ok, f.Not(pred)))
	if got := s.Check(); got != solver.Unsat {
		t.Fatalf("inferred predicate removes good runs (OK ∧ ¬φ is %v)", got)
	}
}

func TestControlledBugsBecomeUnreachable(t *testing.T) {
	pl, rep := compileAndFind(t, natSrc)
	res := Run(pl, rep, DefaultOptions())
	f := pl.IR.F
	s := solver.New()
	s.Assert(combinedPredicate(f, res))
	for _, b := range rep.Bugs {
		if !b.Reachable || !res.Controlled[b.Node] {
			continue
		}
		if s.Check(b.Cond) != solver.Unsat {
			t.Errorf("controlled bug still reachable under predicates: %s", b.Description())
		}
	}
}

func TestInferAlgorithmDirectly(t *testing.T) {
	pl, rep := compileAndFind(t, natSrc)
	nat := findInstance(pl, "nat")
	var natBugs []*core.Bug
	for _, b := range rep.Bugs {
		if b.Reachable && b.Instance == nat && b.Kind == ir.BugInvalidKeyRead {
			natBugs = append(natBugs, b)
		}
	}
	if len(natBugs) == 0 {
		t.Fatal("no nat key bug")
	}
	calls := 0
	dual, direct := warmBases(pl, natBugs, DefaultOptions())
	a, _ := inferShared(pl, &forkPair{}, dual, direct, nat, natBugs, &calls)
	if a == nil || len(a.Forbidden) == 0 {
		t.Fatal("Infer produced nothing for the controllable nat bug")
	}
	if calls == 0 {
		t.Fatal("Infer made no solver iterations")
	}
	// Check the predicate controls the bug.
	f := pl.IR.F
	s := solver.New()
	s.Assert(a.Predicate(f))
	if s.Check(natBugs[0].Cond) != solver.Unsat {
		t.Fatal("Infer's predicate does not control the nat bug")
	}
}

func TestAssertionSources(t *testing.T) {
	pl, rep := compileAndFind(t, natSrc)
	res := Run(pl, rep, DefaultOptions())
	if len(res.Assertions) == 0 {
		t.Fatal("no assertions")
	}
	for _, a := range res.Assertions {
		switch a.Source {
		case "fast-infer", "infer", "multi-table":
		default:
			t.Errorf("unknown assertion source %q", a.Source)
		}
		if a.Instance == nil {
			t.Error("assertion without instance")
		}
	}
}

// TestForkMatchesFreshOnCorpus: a fork of a warm base is the solver a
// cold build would have been, as far as answers go. For every corpus
// program and every instance Infer works on, the queries that instance's
// Infer run issues — its BUG disjunction and the negation of each cube it
// found asserted into direct with a check between, each cube and each atom
// (both polarities) assumed in dual beside the assert point's reach
// condition — are replayed through forks of the round's bases and through
// solvers built from nothing, and must get the same sat/unsat answers.
func TestForkMatchesFreshOnCorpus(t *testing.T) {
	// Every fork below is copied into a solver taken from a pool whose idle
	// solvers have another program's whole life behind them: its shards,
	// with their bug checks and rechecks, and the bases of its inference.
	recycled := solver.NewPool(nil)
	{
		pl, err := core.Compile(natSrc, ir.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rep := pl.FindBugsWith(pl.IR.Bugs, core.FindOptions{Workers: 2, Solvers: recycled})
		dirtying := DefaultOptions()
		dirtying.Solvers = recycled
		Run(pl, rep, dirtying)
		recycled.Put(rep.Shards...)
	}
	queries := 0
	for _, p := range progs.All() {
		if p.Name == "switch" {
			continue // the generated switch is TestRunDeterministicAcrossWorkerCounts' subject
		}
		t.Run(p.Name, func(t *testing.T) {
			pl, rep := compileAndFind(t, p.Source)
			f := pl.IR.F
			opts := DefaultOptions()
			byInstance := map[*ir.TableInstance][]*core.Bug{}
			var dominated []*core.Bug
			for _, b := range rep.Bugs {
				if b.Reachable && b.Instance != nil {
					byInstance[b.Instance] = append(byInstance[b.Instance], b)
					dominated = append(dominated, b)
				}
			}
			if len(dominated) == 0 {
				return // no reachable bug is dominated by a table: Infer has no work
			}
			dualBase, directBase := warmBases(pl, dominated, opts)
			ok := f.And(pl.FullReach.OK, f.Not(pl.FullReach.DontCareReach))
			// One worker's pair, built in recycled solvers and copied over by
			// every instance below, as a worker's pair is by each it takes.
			worker := &forkPair{recycled.New(), recycled.New()}
			defer func() { recycled.Put(worker.dual, worker.direct) }()
			for _, inst := range pl.IR.Instances {
				bugs := byInstance[inst]
				reachAP := pl.FullReach.Cond[inst.Apply]
				if len(bugs) == 0 || reachAP == nil {
					continue
				}
				var calls, pooledCalls int
				a, _ := inferShared(pl, &forkPair{}, dualBase, directBase, inst, bugs, &calls)
				if b, _ := inferShared(pl, worker, dualBase, directBase, inst, bugs, &pooledCalls); !reflect.DeepEqual(a, b) || calls != pooledCalls {
					t.Errorf("%s: Infer on recycled forks took %d calls to %v, on allocated ones %d calls to %v", inst.Name(), pooledCalls, b, calls, a)
				}
				if a == nil {
					continue
				}
				bug := f.False()
				for _, b := range bugs {
					bug = f.Or(bug, b.Cond)
				}
				same := func(what string, fork, fresh solver.Result) {
					t.Helper()
					queries++
					if fork != fresh {
						t.Errorf("%s: %s: fork says %v, fresh solver says %v", inst.Name(), what, fork, fresh)
					}
				}

				directFork, directFresh := recycled.New().CopyFrom(directBase), solver.New()
				directFork.Assert(bug)
				directFresh.Assert(bug)
				for i, cube := range a.Forbidden {
					same(fmt.Sprintf("direct before cube %d", i), directFork.Check(), directFresh.Check())
					directFork.Assert(f.Not(cube))
					directFresh.Assert(f.Not(cube))
				}
				same("direct after every cube", directFork.Check(), directFresh.Check())

				dualFork, dualFresh := recycled.New().CopyFrom(dualBase), solver.New()
				dualFresh.Assert(ok)
				for i, cube := range a.Forbidden {
					fork, fresh := dualFork.Check(cube, reachAP), dualFresh.Check(cube, reachAP)
					same(fmt.Sprintf("dual under cube %d", i), fork, fresh)
					if fork != solver.Unsat {
						t.Errorf("%s: forbidden cube %s admits a good run (%v)", inst.Name(), cube, fork)
					}
				}
				for _, atom := range atomsFor(pl, inst) {
					for _, lit := range []*smt.Term{atom, f.Not(atom)} {
						same("dual under "+lit.String(), dualFork.Check(lit, reachAP), dualFresh.Check(lit, reachAP))
					}
				}
				recycled.Put(directFork, dualFork)
			}
		})
	}
	if queries == 0 {
		t.Fatal("no query was replayed: the corpus gave Infer no instance to work on")
	}
}

// TestFastInferOverapproximatesInfer checks the paper's containment
// claim (φ ⊨ φ_fast): anything Fast-Infer forbids, Infer's result forbids
// no less — equivalently every rule Infer's φ allows satisfies φ_fast...
// we verify the directly checkable variant: φ_fast's forbidden cubes are
// all inconsistent with OK (they are genuine necessary preconditions).
func TestFastInferForbiddenInconsistentWithOK(t *testing.T) {
	pl, _ := compileAndFind(t, natSrc)
	f := pl.IR.F
	ok := f.And(pl.FullReach.OK, f.Not(pl.FullReach.DontCareReach))
	for _, inst := range pl.IR.Instances {
		a := FastInfer(pl, inst)
		if a == nil {
			continue
		}
		for _, forb := range a.Forbidden {
			s := solver.New()
			// A forbidden cube together with "this entry was hit on a
			// good run through the table" must be unsat.
			s.Assert(f.And(ok, pl.FullReach.Cond[inst.Apply], forb))
			if got := s.Check(); got != solver.Unsat {
				t.Errorf("%s: forbidden cube %s consistent with good runs (%v)",
					inst.Name(), forb, got)
			}
		}
	}
}

// combinedPredicate conjoins every assertion's predicate.
func combinedPredicate(f *smt.Factory, r *Result) *smt.Term {
	out := f.True()
	for _, a := range r.Assertions {
		out = f.And(out, a.Predicate(f))
	}
	return out
}
