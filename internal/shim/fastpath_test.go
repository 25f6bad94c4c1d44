package shim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/smt"
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
			{PrefixLen: -1},
			dataplane.NewLpm(1, 0),
			dataplane.NewExact(1),
		},
		Action: "NoAction",
	}}
}

// wideActA selects actA with both params zero: the 65-bit wide-param
// condition's action_run conjunct holds, so its two-limb compare really
// runs (and accepts, since p65 == 0).
func wideActA() *Update {
	u := wideAccept()
	u.Entry.Action = "actA"
	u.Entry.Params = []dataplane.Value{dataplane.U64(0), dataplane.U64(0)}
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
// conditions over 65- and 128-bit values lower onto multi-limb registers,
// a condition with wide arithmetic stays on the term-DAG slow path behind
// its lowerable conjuncts as guards, shadow-linked assertions compile into
// the per-entry scan tier with their scanned-only conjuncts as filters,
// and everything else lowers to a single-shot program with no filters.
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
		case c.prog == nil:
			t.Errorf("wide condition %d (%s) did not compile; neither a 65-bit parameter nor an unbound ghost var may force a fallback", ci, c.src.Source)
		case len(c.guards) != 0:
			t.Errorf("wide condition %d runs once per update and needs no guards, has %d", ci, len(c.guards))
		}
		if c.scan != nil {
			t.Errorf("wide condition %d scans %s; wide has no linked assertions", ci, c.scan.tb.ts.Name)
		}
		if len(c.filters) != 0 {
			t.Errorf("wide condition %d scans nothing and needs no filters, has %d", ci, len(c.filters))
		}
	}
	// Each variable takes a register a limb, back to back: p65 two.
	for _, tb := range []*table{wide, cp.tables["v6"]} {
		next := tb.own.lo
		for _, v := range tb.own.vars {
			if v.slot != next {
				t.Errorf("%s at width %d has register %d, want %d", v.name, v.width, v.slot, next)
			}
			next += smt.Limbs(v.width)
		}
		if next != tb.own.hi {
			t.Errorf("%s's registers end at %d, its binding at %d", tb.ts.Name, next, tb.own.hi)
		}
	}
	// v6's cluster: wide-keys (5 terms) lower; wide-arith's bvadd at 128
	// bits does not, and its action_run conjunct guards it.
	v6 := cp.tables["v6"]
	if got := len(v6.conds); got != 6 {
		t.Fatalf("v6's cluster has %d conditions, want 6", got)
	}
	for ci := range v6.conds {
		c := &v6.conds[ci]
		switch arith := c.src.Source == "wide-arith"; {
		case arith && (c.prog != nil || len(c.guards) != 1):
			t.Errorf("wide-arith: program %v, %d guards; want none and its action_run conjunct", c.prog != nil, len(c.guards))
		case !arith && c.prog == nil:
			t.Errorf("v6 condition %d (%s) did not lower onto multi-limb registers", ci, c.src.Source)
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
	// The two peer-only conjuncts, p.hit and p.key0 = 3, become its filters.
	if got := len(linked.filters); got != 2 {
		t.Errorf("linked condition has %d filters, want 2", got)
	}
	for ci := range small.conds[1:] {
		if c := &small.conds[1+ci]; c.prog == nil || c.scan != nil || len(c.filters) != 0 {
			t.Errorf("param-guard term %d did not compile into a single-shot program without filters", ci)
		}
	}

	peer := cp.tables["peer"]
	if len(peer.conds) != 1 || peer.conds[0].scan == nil {
		t.Fatal("peer's view of the linked assertion should scan small")
	}
	view := &peer.conds[0]
	if got := view.scan.tb.ts.Name; got != "small" {
		t.Errorf("peer's linked condition scans %q, want small", got)
	}
	// Mirrored: p.hit and p.key0 = 3 guard it, s.hit and s.key0 = 0 filter.
	if len(view.guards) != 2 || len(view.filters) != 2 {
		t.Errorf("peer's linked condition has %d guards and %d filters, want 2 and 2", len(view.guards), len(view.filters))
	}
	// Each table lists the conditions that scan it, at their positions.
	if len(peer.scanners) != 1 || peer.scanners[0] != linked || linked.at != 0 {
		t.Errorf("peer is scanned by %d conditions, want small's linked one at 0", len(peer.scanners))
	}
	if len(small.scanners) != 1 || small.scanners[0] != view || view.at != 0 {
		t.Errorf("small is scanned by %d conditions, want peer's view at 0", len(small.scanners))
	}
	if len(wide.scanners) != 0 {
		t.Errorf("wide is scanned by %d conditions, want none", len(wide.scanners))
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
	st := s.Counters()
	// wideAccept (NoAction): width-boundary (3) + wide-param (1) +
	// ghost (1) = 5 fast. wideActA: the same 5, the 65-bit wide-param
	// condition on two-limb registers. smallAccept: linked scan (1) +
	// param-guard (2) = 3 fast.
	if st.FastpathHits != 13 || st.SlowpathHits != 0 {
		t.Fatalf("fast/slow hits = %d/%d, want 13/0", st.FastpathHits, st.SlowpathHits)
	}

	off := NewFromCompiled(cp)
	off.SetFastpath(false)
	for _, u := range []*Update{wideAccept(), wideActA(), smallAccept()} {
		if err := off.Apply(u); err != nil {
			t.Fatalf("accept update rejected with fastpath off: %v", err)
		}
	}
	st = off.Counters()
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

// TestNewFromCompiledAllocatesLittle: a shim keeps no latency samples of
// its own (the registry's histograms are the only record), so building
// one allocates its shadow and candidate slices and empty maps, not the
// two 64 KB rings it once preallocated.
func TestNewFromCompiledAllocatesLittle(t *testing.T) {
	cp := widthCompiled(t)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	testing.AllocsPerRun(runs, func() { benchShim = NewFromCompiled(cp) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more to warm up.
	if n := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); n >= 8<<10 {
		t.Fatalf("NewFromCompiled allocates %d bytes a shim, want under 8 KB", n)
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
	if s.Counters().FastpathHits == 0 {
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
	if shims[0].Counters().FastpathHits == 0 {
		t.Fatal("soak never exercised the fast path")
	}
	if shims[2].Counters().FastpathHits != 0 {
		t.Fatal("disabled shim took the fast path")
	}
}

var errSoakAcceptedBad = errors.New("known-bad wide update was accepted")

// TestLinkedScanAfterRollbackAndRestore: the candidate rows a shim keeps
// of a scanned table's entries stay in step with the entries through a
// rolled-back batch and through Kill+RestoreNow (journal replay, then a
// checkpoint's snapshot), on both tiers. A batch that added l entries 9,
// 7 and 8 and was rolled back must leave no row behind: l key 7 passes
// the condition's filters, so a stale candidate would reject t key 1
// before l key 7 is really applied, and a restore that skipped the
// filters would miss the rejection after.
func TestLinkedScanAfterRollbackAndRestore(t *testing.T) {
	key8 := []spec.KeySchema{{Path: "hdr.k", MatchKind: "exact", Width: 8}}
	noAct := []*spec.ActionSchema{{Name: "NoAction", Index: 0}}
	file := &spec.File{
		Program: "linked",
		Tables: []*spec.TableSchema{
			{Name: "t", Prefix: "t$0", Keys: key8, Actions: noAct, Default: "NoAction"},
			{Name: "l", Prefix: "l$0", Keys: key8, Actions: noAct, Default: "NoAction"},
		},
		Assertions: []*spec.Assertion{{
			Table: "t", Linked: "l", Source: "t-after-l",
			Forbidden: []string{"(and |t$0.hit| (= |t$0.key0| (_ bv1 8)) |l$0.hit| (= |l$0.key0| (_ bv7 8)))"},
			Vars:      map[string]int{"t$0.hit": 0, "t$0.key0": 8, "l$0.hit": 0, "l$0.key0": 8},
		}},
	}
	entry := func(table string, k int64, action string) *Update {
		return &Update{Table: table, Entry: &dataplane.Entry{Keys: []dataplane.KeyMatch{dataplane.NewExact(k)}, Action: action}}
	}
	for _, fastpath := range []bool{true, false} {
		fleet := NewFleet(FleetConfig{StateRoot: t.TempDir(), NoSync: true})
		sd, err := fleet.AddShard("sw0", file)
		if err != nil {
			t.Fatal(err)
		}
		live := func() *Shim {
			sh := sd.LiveShim()
			sh.SetFastpath(fastpath)
			return sh
		}
		sh := live()
		if err := sh.Apply(entry("l", 5, "NoAction")); err != nil {
			t.Fatal(err)
		}
		err = sh.ApplyBatch([]*Update{entry("l", 9, "NoAction"), entry("l", 7, "NoAction"), entry("l", 8, "NoAction"), entry("t", 2, "bogus")})
		if !strings.Contains(fmt.Sprint(err), "rolled back") {
			t.Fatalf("batch with a bogus action: %v", err)
		}
		if err := sh.Validate(entry("t", 1, "NoAction")); err != nil {
			t.Fatalf("fastpath=%v: t key 1 beside l {5} after the rolled-back batch = %v, want accepted", fastpath, err)
		}
		if err := sh.Apply(entry("l", 7, "NoAction")); err != nil {
			t.Fatal(err)
		}
		rejects := func(when string) {
			t.Helper()
			var re *RejectionError
			if err := live().Apply(entry("t", 1, "NoAction")); !errors.As(err, &re) || re.Assertion == nil || re.Assertion.Source != "t-after-l" {
				t.Fatalf("fastpath=%v, %s: t key 1 beside l {5, 7} = %v, want the linked-scan rejection", fastpath, when, err)
			}
		}
		rejects("after the rolled-back batch")
		if fast := live().Counters().FastpathHits; (fast > 0) != fastpath {
			t.Fatalf("fastpath=%v: %d fast-tier evaluations", fastpath, fast)
		}
		for i, checkpoint := range []bool{false, true} {
			if checkpoint {
				if err := live().Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := fleet.Kill("sw0"); err != nil {
				t.Fatal(err)
			}
			if err := fleet.RestoreNow("sw0"); err != nil {
				t.Fatal(err)
			}
			rejects(fmt.Sprintf("after restore %d (checkpointed: %v)", i+1, checkpoint))
		}
		fleet.Close()
	}
}
