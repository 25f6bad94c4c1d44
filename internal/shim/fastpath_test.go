package shim

import (
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/spec"
)

// wideAccept builds a wide-table update no assertion forbids: key0 != 0
// defuses the hit-guarded conditions, prefix length 0 makes mask2 zero
// (bvult against zero is always false), and NoAction defuses the
// action_run guards.
func wideAccept() *Update {
	return &Update{Table: "wide", Entry: &dataplane.Entry{
		Keys: []dataplane.KeyMatch{
			dataplane.NewExact(5),
			dataplane.NewTernary(7, 0x7f),
			dataplane.NewLpm(1, 0),
			dataplane.NewExact(0),
		},
		Action: "NoAction",
	}}
}

// wideReject trips the first width-boundary condition: key0 == 0 with a
// full (nil) ternary mask makes key1 < mask1 hold.
func wideReject() *Update {
	return &Update{Table: "wide", Entry: &dataplane.Entry{
		Keys: []dataplane.KeyMatch{
			dataplane.NewExact(0),
			{Value: big.NewInt(0), PrefixLen: -1},
			dataplane.NewLpm(1, 0),
			dataplane.NewExact(1),
		},
		Action: "NoAction",
	}}
}

// wideActA selects actA with both params zero: the 65-bit wide-param
// condition's action_run guard passes, so its term-DAG fallback really
// runs (and accepts, since p65 == 0).
func wideActA() *Update {
	u := wideAccept()
	u.Entry.Action = "actA"
	u.Entry.Params = []*big.Int{big.NewInt(0), big.NewInt(0)}
	return u
}

// smallAccept exercises the linked-scan tier (the linked assertion
// resolves against peer's shadow copy) but key0 != 0 makes it accept
// regardless of shadow contents — deterministic under concurrency.
func smallAccept() *Update {
	return &Update{Table: "small", Entry: &dataplane.Entry{
		Keys: []dataplane.KeyMatch{
			dataplane.NewExact(1),
			dataplane.NewTernary(3, 0xff),
		},
		Action: "NoAction",
	}}
}

// TestFastpathPlanShape pins which conditions compile into which tier:
// 65-bit params must stay on the term-DAG slow path, shadow-linked
// assertions must compile into the per-entry scan tier, and everything
// else must lower to a single-shot program.
func TestFastpathPlanShape(t *testing.T) {
	cp := widthCompiled(t)
	wide := cp.tables["wide"]
	if !wide.hasFast {
		t.Fatal("wide table should have a fast-path plan")
	}
	// wide's cluster in spec order: width-boundary (3 terms), wide-param
	// (1 term), ghost-var (1 term).
	if got := len(wide.conds); got != 5 {
		t.Fatalf("wide's cluster has %d conditions, want 5", got)
	}
	for ci := range wide.conds {
		c := &wide.conds[ci]
		switch {
		case ci == 3 && c.prog != nil:
			t.Error("65-bit param condition must stay on the term tier")
		case ci == 3 && len(c.guards) != 1:
			t.Errorf("65-bit param condition has %d guards, want its action_run conjunct", len(c.guards))
		case ci != 3 && c.prog == nil:
			t.Errorf("wide condition %d (%s) did not compile; an unbound ghost var must not force a fallback", ci, c.src.Source)
		case ci != 3 && len(c.guards) != 0:
			t.Errorf("wide condition %d runs once per update and needs no guards, has %d", ci, len(c.guards))
		}
		if c.scan != nil {
			t.Errorf("wide condition %d scans %s; wide has no linked assertions", ci, c.scan.tb.ts.Name)
		}
	}
	for _, v := range wide.own.vars {
		if wideVar := v.name == "w$0.actA.p65"; wideVar != (v.slot < 0) {
			t.Errorf("%s at width %d has register %d", v.name, v.width, v.slot)
		}
	}

	small := cp.tables["small"]
	if !small.hasFast {
		t.Fatal("small table should have a fast-path plan")
	}
	linked := &small.conds[0]
	if linked.prog == nil || linked.scan == nil {
		t.Fatal("linked condition should compile into the scan tier")
	}
	if linked.scan.tb.ts.Name != "peer" {
		t.Errorf("small's linked condition scans %q, want peer", linked.scan.tb.ts.Name)
	}
	if len(linked.scan.vars) != 2 {
		t.Errorf("scan binding has %d variables, want p$0.hit and p$0.key0", len(linked.scan.vars))
	}
	// The linked term is (and s.hit (= s.key0 0) p.hit (= p.key0 3)):
	// the two small-only conjuncts become scan guards.
	if got := len(linked.guards); got != 2 {
		t.Errorf("linked condition has %d scan guards, want 2", got)
	}
	for ci := range small.conds[1:] {
		if c := &small.conds[1+ci]; c.prog == nil || c.scan != nil {
			t.Errorf("param-guard term %d did not compile into a single-shot program", ci)
		}
	}

	peer := cp.tables["peer"]
	if len(peer.conds) != 1 || peer.conds[0].scan == nil {
		t.Fatal("peer's view of the linked assertion should scan small")
	}
	if got := peer.conds[0].scan.tb.ts.Name; got != "small" {
		t.Errorf("peer's linked condition scans %q, want small", got)
	}

	if cp.maxRegs == 0 {
		t.Error("compilation left maxRegs unset")
	}
}

// TestFastpathStatsSplit checks the fast/slow counters and the
// -fastpath=off switch: a disabled shim must never touch the bytecode
// tier.
func TestFastpathStatsSplit(t *testing.T) {
	cp := widthCompiled(t)
	s := NewFromCompiled(cp)
	for _, u := range []*Update{wideAccept(), wideActA(), smallAccept()} {
		if err := s.Apply(u); err != nil {
			t.Fatalf("accept update rejected: %v", err)
		}
	}
	st := s.Stats()
	// wideAccept (NoAction): width-boundary (3 fast) + ghost (1 fast) +
	// wide-param (guard on action_run refutes → fast) = 5 fast.
	// wideActA: same 4 fast, but the wide-param guard passes, forcing
	// one term-DAG eval of the 65-bit condition = 1 slow.
	// smallAccept: linked scan (1 fast) + param-guard (2 fast).
	if st.FastpathHits != 12 || st.SlowpathHits != 1 {
		t.Fatalf("fast/slow hits = %d/%d, want 12/1", st.FastpathHits, st.SlowpathHits)
	}

	off := NewFromCompiled(cp)
	off.SetFastpath(false)
	for _, u := range []*Update{wideAccept(), wideActA(), smallAccept()} {
		if err := off.Apply(u); err != nil {
			t.Fatalf("accept update rejected with fastpath off: %v", err)
		}
	}
	st = off.Stats()
	if st.FastpathHits != 0 || st.SlowpathHits != 13 {
		t.Fatalf("fastpath off: fast/slow hits = %d/%d, want 0/13", st.FastpathHits, st.SlowpathHits)
	}
}

// TestAcceptedUpdateAllocatesNothing: the boundary check and the binders
// format no name and build no map for an update that is admitted — on the
// fast tier, validating one touches the heap not at all.
func TestAcceptedUpdateAllocatesNothing(t *testing.T) {
	s := NewFromCompiled(widthCompiled(t))
	for _, u := range []*Update{wideAccept(), smallAccept()} {
		if n := testing.AllocsPerRun(100, func() {
			if err := s.Validate(u); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("validating an accepted %s update allocates %v times", u.Table, n)
		}
	}
}

// TestFastpathRejectionMessage pins that a fast-path rejection carries
// the same source attribution the slow path produces.
func TestFastpathRejectionMessage(t *testing.T) {
	cp := widthCompiled(t)
	s := NewFromCompiled(cp)
	err := s.Apply(wideReject())
	if err == nil {
		t.Fatal("expected rejection")
	}
	if !strings.Contains(err.Error(), "width-boundary") {
		t.Fatalf("rejection lost its source attribution: %v", err)
	}
	if s.Stats().FastpathHits == 0 {
		t.Fatal("rejection should have come from the fast path")
	}
}

// TestFastpathForeignScanSlots pins the slot-ownership rule: a
// condition may only read scan registers of its own cluster's binder.
// Table t has two clusters — one scanning l, one linked to m but
// (adversarially) mentioning l's hit variable. On the slow path that
// variable is never bound for the second cluster (its scan set is {m}),
// so it reads false; a plan that let the second cluster's program read
// l's scan slot would see whatever the FIRST cluster's scan left there
// and reject an update the slow path accepts.
func TestFastpathForeignScanSlots(t *testing.T) {
	key8 := []spec.KeySchema{{Path: "hdr.k", MatchKind: "exact", Width: 8}}
	noAct := []*spec.ActionSchema{{Name: "NoAction", Index: 0}}
	file := &spec.File{
		Program: "foreign",
		Tables: []*spec.TableSchema{
			{Name: "t", Prefix: "t$0", Keys: key8, Actions: noAct, Default: "NoAction"},
			{Name: "l", Prefix: "l$0", Keys: key8, Actions: noAct, Default: "NoAction"},
			{Name: "m", Prefix: "m$0", Keys: key8, Actions: noAct, Default: "NoAction"},
		},
		Assertions: []*spec.Assertion{
			{
				Table: "t", Linked: "l", Source: "scans-l",
				Forbidden: []string{
					"(and |t$0.hit| (= |t$0.key0| (_ bv1 8)) |l$0.hit| (= |l$0.key0| (_ bv7 8)))",
				},
				Vars: map[string]int{"t$0.hit": 0, "t$0.key0": 8, "l$0.hit": 0, "l$0.key0": 8},
			},
			{
				Table: "t", Linked: "m", Source: "mentions-l",
				Forbidden: []string{
					"(and |t$0.hit| (= |t$0.key0| (_ bv1 8)) |l$0.hit|)",
				},
				Vars: map[string]int{"t$0.hit": 0, "t$0.key0": 8, "l$0.hit": 0},
			},
		},
	}
	cp, err := Compile(file)
	if err != nil {
		t.Fatal(err)
	}
	fast := NewFromCompiled(cp)
	slow := NewFromCompiled(cp)
	slow.SetFastpath(false)
	for _, u := range []*Update{
		// Populate l's shadow (key0 = 5) so the first cluster's scan
		// really binds l.hit = true before the second cluster runs.
		{Table: "l", Entry: &dataplane.Entry{Keys: []dataplane.KeyMatch{dataplane.NewExact(5)}, Action: "NoAction"}},
		// t.key0 = 1 passes the first cluster's guard; its scan finds
		// l.key0 = 5 != 7, so no violation. The second cluster must then
		// read l.hit as false (m's scan never binds it), not as the
		// stale true the first scan wrote.
		{Table: "t", Entry: &dataplane.Entry{Keys: []dataplane.KeyMatch{dataplane.NewExact(1)}, Action: "NoAction"}},
	} {
		errF := fast.Apply(u)
		errS := slow.Apply(u)
		if (errF == nil) != (errS == nil) {
			t.Fatalf("tiers diverge on %s update: fast=%v slow=%v", u.Table, errF, errS)
		}
		if errS != nil {
			t.Fatalf("slow tier rejected a legal update: %v", errS)
		}
	}
}

// TestFastpathRaceSoak hammers several shims sharing one Compiled (and
// therefore one scratch-register pool) from many goroutines, asserting
// every outcome. A corrupted or cross-wired register file would flip an
// accept to a reject (or vice versa) and fail deterministically; run
// under -race this also proves the pool and plan sharing are clean.
func TestFastpathRaceSoak(t *testing.T) {
	cp := widthCompiled(t)
	shims := []*Shim{NewFromCompiled(cp), NewFromCompiled(cp), NewFromCompiled(cp)}
	// One shim runs slow-tier only, sharing the same plans map.
	shims[2].SetFastpath(false)
	const goroutines, rounds = 8, 150
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := shims[(g+i)%len(shims)]
				if err := s.Apply(wideAccept()); err != nil {
					errs <- err
					return
				}
				if err := s.Apply(smallAccept()); err != nil {
					errs <- err
					return
				}
				if err := s.Apply(wideReject()); err == nil {
					errs <- errSoakAcceptedBad
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("race soak: %v", err)
	}
	if shims[0].Stats().FastpathHits == 0 {
		t.Fatal("soak never exercised the fast path")
	}
	if shims[2].Stats().FastpathHits != 0 {
		t.Fatal("disabled shim took the fast path")
	}
}

var errSoakAcceptedBad = errors.New("known-bad wide update was accepted")
